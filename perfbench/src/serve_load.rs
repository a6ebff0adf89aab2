//! The `dragon serve` daemon under a closed loop of client connections.
//!
//! The daemon runs in-process on a thread (as `benches/serve_load.rs`
//! runs it) and listens on its real Unix socket; the clients speak the
//! line-delimited JSON protocol over persistent connections, one thread
//! and one connection per client. Each client owns a disjoint set of
//! projects, so it always knows which variant a project holds and every
//! `query-rgn` answer can be checked exactly.

use crate::gen::Generated;
use dragon::serve::{self, ServeOptions};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use support::json::{obj, ParseLimits, Value};

pub struct Daemon {
    socket: PathBuf,
    thread: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts a daemon with default options except the socket, the cache
    /// root and a worker count capped at `nproc`.
    pub fn start(socket: PathBuf, cache_root: PathBuf, nproc: usize) -> Result<Daemon, String> {
        let defaults = ServeOptions::default();
        let opts = ServeOptions {
            socket: socket.clone(),
            cache_root: Some(cache_root),
            workers: defaults.workers.min(nproc).max(1),
            ..defaults
        };
        let thread = std::thread::Builder::new()
            .name("perfbench-daemon".to_string())
            .spawn(move || {
                if let Err(e) = serve::run(opts) {
                    eprintln!("perfbench: daemon failed: {e}");
                }
            })
            .map_err(|e| format!("cannot spawn daemon thread: {e}"))?;
        let mut daemon = Daemon {
            socket,
            thread: Some(thread),
        };
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(30) {
            if UnixStream::connect(&daemon.socket).is_ok() {
                return Ok(daemon);
            }
            if daemon.thread.as_ref().is_some_and(JoinHandle::is_finished) {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        daemon.stop();
        Err("daemon did not become ready".to_string())
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.socket)
    }

    /// Drains the daemon over the wire and joins its thread.
    pub fn stop(&mut self) {
        if let Ok(mut c) = Conn::open(&self.socket) {
            let _ = c.call(&obj([
                ("id", Value::int(0)),
                ("op", Value::str("shutdown")),
                ("project", Value::str("perfbench")),
            ]));
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

/// One persistent client connection.
pub struct Conn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Conn {
    fn open(socket: &Path) -> Result<Conn, String> {
        let s = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        s.set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = s.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(s),
            writer,
        })
    }

    /// Sends one request line and reads one response line.
    pub fn call_raw(&mut self, line: &str) -> Result<Value, String> {
        self.writer
            .write_all(line.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        self.writer
            .write_all(b"\n")
            .map_err(|e| format!("send: {e}"))?;
        let mut resp = String::new();
        let n = self
            .reader
            .read_line(&mut resp)
            .map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err("connection closed".to_string());
        }
        let limits = ParseLimits {
            max_bytes: 1 << 30,
            ..ParseLimits::default()
        };
        Value::parse_with_limits(resp.trim_end(), limits).map_err(|e| format!("bad response: {e}"))
    }

    pub fn call(&mut self, req: &Value) -> Result<Value, String> {
        self.call_raw(&req.render())
    }
}

pub fn analyze_request(
    id: u64,
    op: &str,
    project: &str,
    sources: &[workloads::GenSource],
) -> Value {
    let srcs = sources
        .iter()
        .map(|s| {
            obj([
                ("name", Value::str(s.name.as_str())),
                ("text", Value::str(s.text.as_str())),
                ("fortran", Value::Bool(s.fortran)),
            ])
        })
        .collect();
    obj([
        ("id", Value::int(id)),
        ("op", Value::str(op)),
        ("project", Value::str(project)),
        ("sources", Value::Arr(srcs)),
    ])
}

pub fn query_request(id: u64, project: &str) -> Value {
    obj([
        ("id", Value::int(id)),
        ("op", Value::str("query-rgn")),
        ("project", Value::str(project)),
    ])
}

/// How one response counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Ok,
    Shed,
    DeadlineExpired,
    Error,
}

pub fn classify(resp: &Result<Value, String>) -> Outcome {
    match resp {
        Ok(v) if v.get("ok").and_then(Value::as_bool) == Some(true) => {
            let result = v.get("result");
            let flag =
                |k: &str| result.and_then(|r| r.get(k)).and_then(Value::as_bool) == Some(true);
            if flag("deadline_expired") {
                Outcome::DeadlineExpired
            } else if flag("degraded") {
                Outcome::Error
            } else {
                Outcome::Ok
            }
        }
        Ok(v) => match v
            .get("error")
            .and_then(|e| e.get("kind"))
            .and_then(Value::as_str)
        {
            Some("overloaded") => Outcome::Shed,
            Some("deadline-expired") => Outcome::DeadlineExpired,
            _ => Outcome::Error,
        },
        Err(_) => Outcome::Error,
    }
}

/// A project the clients drive: its name and both source variants
/// (`[original, edited]`).
pub struct Project {
    pub name: String,
    pub variants: [Vec<workloads::GenSource>; 2],
}

impl Project {
    pub fn new(name: String, g: &Generated) -> Project {
        Project {
            name,
            variants: [g.sources.clone(), g.edited.clone()],
        }
    }
}

/// Everything one closed-loop phase observed.
#[derive(Default)]
pub struct LoadResult {
    pub edit_ms: Vec<f64>,
    pub query_ms: Vec<f64>,
    pub request_bytes: Vec<f64>,
    pub completed: u64,
    pub attempted: u64,
    pub shed: u64,
    pub deadline_expired: u64,
    pub errors: u64,
    pub elapsed_s: f64,
    /// (project index, variant, digest of the `.rgn` served) per query.
    pub served: Vec<(usize, usize, u64)>,
}

/// Where the closed loop stands between calls: the variant each project
/// holds and how many requests each client has sent.
pub struct LoopState {
    variant: Vec<usize>,
    sent: Vec<u64>,
}

impl LoopState {
    /// Every project loaded in variant 0, nothing sent yet.
    pub fn new(projects: usize, clients: usize) -> LoopState {
        LoopState {
            variant: vec![0; projects],
            sent: vec![0; clients.max(1)],
        }
    }
}

/// Runs the closed-loop clients for `dur`, continuing from `state`. Each
/// client sends one `reanalyze` (a one-file edit toggling the variant of
/// its next project) then three `query-rgn` reads, and repeats.
pub fn closed_loop(
    daemon: &Daemon,
    projects: &[Project],
    state: &mut LoopState,
    dur: Duration,
) -> LoadResult {
    let clients = state.sent.len();
    let deadline = Instant::now() + dur;
    let start = Instant::now();
    let mut total = LoadResult::default();
    let results: Vec<(Vec<usize>, LoadResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let owned: Vec<usize> = (0..projects.len()).filter(|p| p % clients == c).collect();
                let variant = state.variant.clone();
                let sent = state.sent[c];
                scope.spawn(move || client_loop(daemon, projects, &owned, variant, sent, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    (
                        Vec::new(),
                        LoadResult {
                            attempted: 1,
                            errors: 1,
                            ..LoadResult::default()
                        },
                    )
                })
            })
            .collect()
    });
    for (c, (variant, r)) in results.into_iter().enumerate() {
        for (p, v) in variant.into_iter().enumerate() {
            if p % clients == c {
                state.variant[p] = v;
            }
        }
        state.sent[c] += r.attempted;
        merge(&mut total, r);
    }
    total.elapsed_s = start.elapsed().as_secs_f64();
    total
}

/// Adds `r` to `total`.
pub fn merge(total: &mut LoadResult, r: LoadResult) {
    total.edit_ms.extend(r.edit_ms);
    total.query_ms.extend(r.query_ms);
    total.request_bytes.extend(r.request_bytes);
    total.completed += r.completed;
    total.attempted += r.attempted;
    total.shed += r.shed;
    total.deadline_expired += r.deadline_expired;
    total.errors += r.errors;
    total.elapsed_s += r.elapsed_s;
    total.served.extend(r.served);
}

fn client_loop(
    daemon: &Daemon,
    projects: &[Project],
    owned: &[usize],
    mut variant: Vec<usize>,
    sent: u64,
    deadline: Instant,
) -> (Vec<usize>, LoadResult) {
    let mut r = LoadResult::default();
    if owned.is_empty() {
        return (variant, r);
    }
    let mut conn = match daemon.connect() {
        Ok(c) => c,
        Err(_) => {
            r.attempted += 1;
            r.errors += 1;
            return (variant, r);
        }
    };
    let mut i = sent;
    while Instant::now() < deadline {
        let p = owned[(i / 4) as usize % owned.len()];
        let project = &projects[p];
        let edit = i.is_multiple_of(4);
        let line = if edit {
            let next = 1 - variant[p];
            analyze_request(i, "reanalyze", &project.name, &project.variants[next]).render()
        } else {
            query_request(i, &project.name).render()
        };
        let t = Instant::now();
        let resp = conn.call_raw(&line);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        r.attempted += 1;
        match classify(&resp) {
            Outcome::Ok => {
                r.completed += 1;
                if edit {
                    variant[p] = 1 - variant[p];
                    r.edit_ms.push(ms);
                    r.request_bytes.push(line.len() as f64);
                } else {
                    r.query_ms.push(ms);
                    let rgn = resp
                        .as_ref()
                        .ok()
                        .and_then(|v| v.get("result"))
                        .and_then(|v| v.get("rgn"))
                        .and_then(Value::as_str)
                        .unwrap_or("");
                    r.served.push((p, variant[p], crate::digest(rgn)));
                }
            }
            Outcome::Shed => r.shed += 1,
            Outcome::DeadlineExpired => r.deadline_expired += 1,
            Outcome::Error => {
                r.errors += 1;
                if resp.is_err() {
                    // The connection is unusable after a transport error.
                    match daemon.connect() {
                        Ok(c) => conn = c,
                        Err(_) => break,
                    }
                }
            }
        }
        i += 1;
    }
    (variant, r)
}
