//! The daemon: accept loop, executor pool, and the drain lifecycle.
//!
//! ## Lifecycle states
//!
//! ```text
//! recover → serving → draining → (drained | aborted)
//! ```
//!
//! * **recover** — before accepting anything, the backend finishes any
//!   journaled in-flight work a previous daemon left behind.
//! * **serving** — connections are accepted; every `Submit` passes the
//!   admission queue (shed with `Overloaded` when full).
//! * **draining** — entered on SIGINT/SIGTERM, a client `Drain` frame, or
//!   an expired serve deadline: admissions stop (`Draining` replies),
//!   admitted work finishes and is journaled, then connections close.
//! * **aborted** — a *second* signal during the drain: the backlog is
//!   dumped (owners get `Failed` frames), in-flight work is cancelled at
//!   its next cell boundary, and the exit is marked interrupted.
//!
//! The server is transport + lifecycle only; work happens behind
//! [`Backend`]. Executors run detached threads coordinated through the
//! queue's counters, so `run_unix`/`run_stdio` return exactly when the
//! drain completes.

use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mps_journal::{signal_count, CancelToken, RunControl};

use crate::proto::{
    recv_msg, send_msg, ClientFrame, ServerFrame, ServerStats, WorkRequest, WorkSummary,
    PROTO_VERSION,
};
use crate::queue::{Admission, AdmissionQueue};
use crate::ServeError;

/// The work-execution seam. `mps-exp` implements this against the real
/// harness; tests implement it with toys.
pub trait Backend: Send + Sync {
    /// Executes one request, calling `emit(key, payload_json)` for every
    /// completed cell (payloads must be the verbatim journaled bytes so
    /// replays are byte-identical). `emit` returning `false` means the
    /// client is gone: stop *sending*, keep journaling. `ctrl` carries
    /// the request deadline and the server's abort token; implementations
    /// poll it between cells and stop early with a checkpointed journal.
    fn execute(
        &self,
        work: &WorkRequest,
        ctrl: &RunControl,
        emit: &mut dyn FnMut(&str, &str) -> bool,
    ) -> Result<WorkSummary, ServeError>;

    /// Startup crash recovery: finish journaled in-flight work a crashed
    /// daemon left behind. Returns how many requests were recovered.
    fn recover(&self) -> Result<u64, ServeError> {
        Ok(0)
    }
}

/// Daemon policy knobs.
#[derive(Clone)]
pub struct ServerConfig {
    /// Free-form server identification sent in `HelloAck`.
    pub server: String,
    /// Admission queue capacity (waiting requests; ≥ 1).
    pub queue_capacity: usize,
    /// Executor threads (concurrent requests; ≥ 1).
    pub executors: usize,
    /// The serve-loop control: its cancel token (typically
    /// [`CancelToken::following_signals`]) or deadline triggers the
    /// drain; its throttle paces executors between cells (test kill
    /// windows).
    pub ctrl: RunControl,
    /// Per-connection read deadline: a connection whose peer sends no
    /// frame for this long is reaped with a typed
    /// [`ServeError::ClientStalled`] (results already admitted keep
    /// journaling — only the *stream* dies). `None` waits forever.
    pub read_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            server: "mps-serve".to_string(),
            queue_capacity: 16,
            executors: 2,
            ctrl: RunControl::unlimited(),
            read_timeout: None,
        }
    }
}

/// How a daemon run ended; the CLI maps this to the exit-code contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerExit {
    /// Requests completed.
    pub served: u64,
    /// Requests shed with `Overloaded`.
    pub shed: u64,
    /// Cells quarantined across all requests.
    pub quarantined: u64,
    /// Requests finished by startup crash recovery.
    pub recovered: u64,
    /// True when a second signal aborted the drain.
    pub interrupted: bool,
}

/// A connection's write half, shared between its reader thread and the
/// executors streaming results back.
pub type Reply = Arc<Mutex<Box<dyn Write + Send>>>;

/// One admitted request.
struct Job {
    id: u64,
    work: WorkRequest,
    deadline_ms: Option<u64>,
    reply: Reply,
}

/// The daemon. Construct with [`Server::new`], then [`Server::run_unix`]
/// or [`Server::run_stdio`].
pub struct Server {
    backend: Arc<dyn Backend>,
    cfg: ServerConfig,
    queue: AdmissionQueue<Job>,
    quarantined: AtomicU64,
    disturbed: AtomicU64,
    rescues: AtomicU64,
    recovered: AtomicU64,
    stalled: AtomicU64,
    /// Set by a client `Drain` frame.
    drain_req: CancelToken,
    /// Cancels in-flight work when a second signal aborts the drain.
    abort: CancelToken,
    #[cfg(unix)]
    conns: Mutex<Vec<std::os::unix::net::UnixStream>>,
}

fn send(reply: &Reply, frame: &ServerFrame) -> Result<(), ServeError> {
    let mut w = reply.lock().unwrap();
    send_msg(&mut **w, frame)
}

/// Makes `socket` free to bind. A socket file that accepts a probe
/// connection belongs to a live daemon and fails typed; one that refuses
/// is stale (its daemon crashed) and is removed. Anything else at the
/// path is left for `bind` to reject.
#[cfg(unix)]
fn claim_socket(socket: &std::path::Path) -> Result<(), ServeError> {
    use std::os::unix::fs::FileTypeExt;

    let Ok(meta) = std::fs::symlink_metadata(socket) else {
        return Ok(());
    };
    if !meta.file_type().is_socket() {
        return Ok(());
    }
    if std::os::unix::net::UnixStream::connect(socket).is_ok() {
        return Err(ServeError::AddrInUse {
            socket: socket.display().to_string(),
        });
    }
    std::fs::remove_file(socket).map_err(|e| ServeError::io("unlink-socket", e))
}

/// `(device, inode)` of the file at `path`, if any.
#[cfg(unix)]
fn file_identity(path: &std::path::Path) -> Option<(u64, u64)> {
    use std::os::unix::fs::MetadataExt;

    std::fs::symlink_metadata(path)
        .ok()
        .map(|m| (m.dev(), m.ino()))
}

/// Read wrapper that remembers whether the last failure was a read
/// deadline expiring (`WouldBlock`/`TimedOut`), so the protocol loop can
/// distinguish a *stalled* client from a torn frame: the transport error
/// kinds are erased by the frame layer's stringified errors.
struct StallGuard<'a> {
    inner: &'a mut dyn Read,
    stalled: bool,
}

impl Read for StallGuard<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.inner.read(buf) {
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                self.stalled = true;
                Err(e)
            }
            r => r,
        }
    }
}

impl Server {
    /// Builds a daemon over `backend`.
    pub fn new(backend: Arc<dyn Backend>, cfg: ServerConfig) -> Arc<Self> {
        let queue = AdmissionQueue::new(cfg.queue_capacity);
        Arc::new(Server {
            backend,
            cfg,
            queue,
            quarantined: AtomicU64::new(0),
            disturbed: AtomicU64::new(0),
            rescues: AtomicU64::new(0),
            recovered: AtomicU64::new(0),
            stalled: AtomicU64::new(0),
            drain_req: CancelToken::new(),
            abort: CancelToken::new(),
            #[cfg(unix)]
            conns: Mutex::new(Vec::new()),
        })
    }

    /// Current statistics (the `Health` reply).
    pub fn stats(&self) -> ServerStats {
        let q = self.queue.stats();
        ServerStats {
            queue_depth: q.depth,
            queue_capacity: q.capacity,
            inflight: q.inflight,
            served: q.served,
            shed: q.shed,
            quarantined: self.quarantined.load(Ordering::SeqCst),
            recovered: self.recovered.load(Ordering::SeqCst),
            stalled: self.stalled.load(Ordering::SeqCst),
            disturbed: self.disturbed.load(Ordering::SeqCst),
            rescues: self.rescues.load(Ordering::SeqCst),
            p50_service_ms: q.p50_service_ms.round() as u64,
            p99_service_ms: q.p99_service_ms.round() as u64,
            draining: q.draining,
        }
    }

    fn should_drain(&self) -> bool {
        self.cfg.ctrl.should_stop().is_some() || self.drain_req.is_cancelled()
    }

    fn spawn_executors(self: &Arc<Self>) {
        for _ in 0..self.cfg.executors.max(1) {
            let me = Arc::clone(self);
            std::thread::spawn(move || me.executor_loop());
        }
    }

    fn executor_loop(self: Arc<Self>) {
        while let Some(job) = self.queue.next() {
            let started = Instant::now();
            // Admitted work survives the *graceful* drain (the whole
            // point of draining) but follows the abort token; the
            // request's own deadline rides along, and the configured
            // throttle paces cell boundaries for test kill windows.
            let mut ctrl = RunControl::unlimited().with_cancel(self.abort.clone());
            ctrl.throttle = self.cfg.ctrl.throttle;
            if let Some(ms) = job.deadline_ms {
                ctrl.deadline = Some(started + Duration::from_millis(ms));
            }
            let Job {
                id, work, reply, ..
            } = job;
            let mut alive = true;
            let mut emit = |key: &str, payload: &str| {
                if alive {
                    let frame = ServerFrame::Cell {
                        id,
                        key: key.to_string(),
                        payload: payload.to_string(),
                    };
                    // A dead client stops the *stream*, never the work:
                    // the backend keeps journaling so the result is
                    // replayable.
                    alive = send(&reply, &frame).is_ok();
                }
                alive
            };
            let result = self.backend.execute(&work, &ctrl, &mut emit);
            let frame = match result {
                Ok(summary) => {
                    self.quarantined
                        .fetch_add(summary.quarantined, Ordering::SeqCst);
                    self.disturbed
                        .fetch_add(summary.disturbed, Ordering::SeqCst);
                    self.rescues.fetch_add(summary.rescues, Ordering::SeqCst);
                    ServerFrame::Done { id, summary }
                }
                Err(e) => ServerFrame::Failed {
                    id,
                    error: e.to_string(),
                },
            };
            let _ = send(&reply, &frame);
            self.queue.finish(started.elapsed().as_millis() as u64);
        }
    }

    /// Classifies a failed/odd `recv_msg` outcome: a read that timed out
    /// is a stalled client (counted and typed); everything else keeps its
    /// original error.
    fn classify_recv(
        &self,
        guard_stalled: bool,
        err: Option<ServeError>,
    ) -> Result<(), ServeError> {
        if guard_stalled {
            self.stalled.fetch_add(1, Ordering::SeqCst);
            return Err(ServeError::ClientStalled {
                timeout_ms: self.cfg.read_timeout.map_or(0, |d| d.as_millis() as u64),
            });
        }
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Runs one connection's protocol loop: handshake, then frames until
    /// EOF/`Bye`/violation. Public so tests can drive a server over any
    /// in-process transport.
    ///
    /// The return value is diagnostic: `Ok` for a clean end (EOF or
    /// `Bye`), a typed [`ServeError`] otherwise — notably
    /// [`ServeError::ClientStalled`] when the transport's read deadline
    /// expired with no frame ([`ServerConfig::read_timeout`]). The
    /// connection is closed by the caller either way.
    pub fn serve_connection(
        self: &Arc<Self>,
        reader: &mut dyn Read,
        reply: &Reply,
    ) -> Result<(), ServeError> {
        let mut guard = StallGuard {
            inner: reader,
            stalled: false,
        };
        // Handshake first; anything else is a violation and closes the
        // connection.
        match recv_msg::<_, ClientFrame>(&mut guard) {
            Ok(Some(ClientFrame::Hello { proto, .. })) => {
                if proto != PROTO_VERSION {
                    let _ = send(
                        reply,
                        &ServerFrame::VersionMismatch {
                            want: PROTO_VERSION.to_string(),
                            got: proto.clone(),
                        },
                    );
                    return Err(ServeError::VersionMismatch {
                        ours: PROTO_VERSION.to_string(),
                        theirs: proto,
                    });
                }
                let _ = send(
                    reply,
                    &ServerFrame::HelloAck {
                        proto: PROTO_VERSION.to_string(),
                        server: self.cfg.server.clone(),
                        queue_capacity: self.cfg.queue_capacity as u64,
                    },
                );
            }
            Ok(Some(_)) => {
                return Err(ServeError::Protocol {
                    reason: "first frame must be Hello".to_string(),
                })
            }
            Ok(None) => return Ok(()),
            Err(e) => return self.classify_recv(guard.stalled, Some(e)),
        }
        loop {
            match recv_msg::<_, ClientFrame>(&mut guard) {
                Ok(Some(ClientFrame::Submit {
                    id,
                    work,
                    deadline_ms,
                })) => {
                    let job = Job {
                        id,
                        work,
                        deadline_ms,
                        reply: Arc::clone(reply),
                    };
                    // Hold the write half across admit + ack so the
                    // admission reply always precedes the first `Cell`
                    // frame an executor might race to send.
                    let mut w = reply.lock().unwrap();
                    let verdict = self.queue.try_admit(job);
                    let ack = match verdict {
                        Admission::Admitted => ServerFrame::Accepted { id },
                        Admission::Shed { retry_after_ms } => {
                            ServerFrame::Overloaded { id, retry_after_ms }
                        }
                        Admission::Draining => ServerFrame::Draining { id },
                    };
                    send_msg(&mut **w, &ack)?;
                }
                Ok(Some(ClientFrame::Health { id })) => {
                    send(
                        reply,
                        &ServerFrame::Stats {
                            id,
                            stats: self.stats(),
                        },
                    )?;
                }
                Ok(Some(ClientFrame::Drain { id })) => {
                    // Stop admissions synchronously — once the ack is on
                    // the wire, no later Submit can slip in — then ack, and
                    // only then nudge the accept loop to begin the
                    // shutdown, which closes this connection.
                    self.queue.start_drain();
                    let _ = send(reply, &ServerFrame::DrainStarted { id });
                    self.drain_req.cancel();
                }
                // A duplicate handshake violates the protocol.
                Ok(Some(ClientFrame::Hello { .. })) => {
                    return Err(ServeError::Protocol {
                        reason: "duplicate Hello".to_string(),
                    })
                }
                Ok(Some(ClientFrame::Bye)) | Ok(None) => return Ok(()),
                Err(e) => return self.classify_recv(guard.stalled, Some(e)),
            }
        }
    }

    /// The drain: stop admissions, let admitted work finish, escalate to
    /// an abort if another signal lands. Returns `interrupted`.
    fn drain_and_wait(&self) -> bool {
        self.queue.start_drain();
        let at_drain = signal_count();
        let mut interrupted = false;
        while !self.queue.drained() {
            if !interrupted && signal_count() > at_drain {
                interrupted = true;
                self.abort.cancel();
                for job in self.queue.abort() {
                    let _ = send(
                        &job.reply,
                        &ServerFrame::Failed {
                            id: job.id,
                            error: "server aborted during drain".to_string(),
                        },
                    );
                }
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        interrupted
    }

    fn exit(&self, interrupted: bool) -> ServerExit {
        let q = self.queue.stats();
        ServerExit {
            served: q.served,
            shed: q.shed,
            quarantined: self.quarantined.load(Ordering::SeqCst),
            recovered: self.recovered.load(Ordering::SeqCst),
            interrupted,
        }
    }

    fn recover_startup(&self) -> Result<(), ServeError> {
        let n = self.backend.recover()?;
        self.recovered.store(n, Ordering::SeqCst);
        Ok(())
    }

    /// Serves connections on a Unix-domain socket until a drain trigger
    /// fires, then drains and returns. A live daemon on the path fails
    /// the call with [`ServeError::AddrInUse`]; a stale socket file (from
    /// a crashed daemon) is replaced. On exit the socket is removed only
    /// if it is still the one this call bound.
    #[cfg(unix)]
    pub fn run_unix(self: &Arc<Self>, socket: &std::path::Path) -> Result<ServerExit, ServeError> {
        use std::os::unix::net::UnixListener;

        claim_socket(socket)?;
        self.recover_startup()?;
        let listener = UnixListener::bind(socket).map_err(|e| ServeError::io("bind", e))?;
        let bound = file_identity(socket);
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::io("bind", e))?;
        self.spawn_executors();

        loop {
            if self.should_drain() {
                break;
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    let res: std::io::Result<()> = (|| {
                        stream.set_nonblocking(false)?;
                        // A peer that stops sending must not pin this
                        // reader thread forever: the deadline turns the
                        // silence into a typed ClientStalled reap.
                        stream.set_read_timeout(self.cfg.read_timeout)?;
                        // One clone to force-close at drain end (unblocks
                        // the reader thread), one as the write half.
                        self.conns.lock().unwrap().push(stream.try_clone()?);
                        let writer = stream.try_clone()?;
                        let reply: Reply = Arc::new(Mutex::new(Box::new(writer)));
                        let me = Arc::clone(self);
                        std::thread::spawn(move || {
                            let mut reader = stream;
                            let _ = me.serve_connection(&mut reader, &reply);
                            // The protocol loop is over (Bye, EOF, stall,
                            // or a violation): shut the socket down so the
                            // peer sees EOF even though `conns` and the
                            // write half still hold fd clones.
                            let _ = reader.shutdown(std::net::Shutdown::Both);
                        });
                        Ok(())
                    })();
                    if res.is_err() {
                        continue;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(ServeError::io("accept", e)),
            }
        }

        let interrupted = self.drain_and_wait();
        for c in self.conns.lock().unwrap().drain(..) {
            let _ = c.shutdown(std::net::Shutdown::Both);
        }
        if bound.is_some() && file_identity(socket) == bound {
            let _ = std::fs::remove_file(socket);
        }
        Ok(self.exit(interrupted))
    }

    /// Serves a single connection over stdin/stdout (test harnesses, no
    /// socket management). Drains on stdin EOF, a `Drain` frame, or the
    /// configured control.
    pub fn run_stdio(self: &Arc<Self>) -> Result<ServerExit, ServeError> {
        self.recover_startup()?;
        self.spawn_executors();
        let reply: Reply = Arc::new(Mutex::new(Box::new(std::io::stdout())));
        let eof = Arc::new(AtomicBool::new(false));
        {
            let me = Arc::clone(self);
            let eof = Arc::clone(&eof);
            std::thread::spawn(move || {
                let stdin = std::io::stdin();
                let mut reader = stdin.lock();
                let _ = me.serve_connection(&mut reader, &reply);
                eof.store(true, Ordering::SeqCst);
            });
        }
        while !self.should_drain() && !eof.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(5));
        }
        let interrupted = self.drain_and_wait();
        Ok(self.exit(interrupted))
    }
}
