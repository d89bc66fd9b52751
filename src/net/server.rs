//! The socket front-end: a thread-per-connection TCP server feeding the
//! sharded runner.
//!
//! # Architecture
//!
//! No async runtime — the workspace vendors none, and none is needed. The
//! server is a small set of plain threads over the same
//! [`pram::pool::spawn_worker`] seam the shards use. Each blocks on one
//! source and wakes only for an event on it; none polls or sleeps while idle:
//!
//! * one **acceptor** blocks in [`TcpListener::accept`] and spawns a
//!   reader/writer pair per connection;
//! * each connection's **reader** blocks on its socket and forwards decoded
//!   request frames to the dispatcher (a codec rejection is answered with an
//!   error frame and closes the connection — a byte stream cannot
//!   resynchronise past a framing error);
//! * each connection's **writer** blocks on its queue and encodes
//!   outcome/error frames onto the socket, so a slow connection
//!   backpressures only itself;
//! * one **dispatcher** blocks on the event channel and is the only thread
//!   that touches the [`ShardedRunner`]. The runner's workers post a
//!   wake-up event after each outcome, and after every event the dispatcher
//!   drains finished outcomes with
//!   [`try_collect_one`](crate::serve::ShardedRunner::try_collect_one),
//!   routing each to the writer of the connection whose ticket it answers.
//!   Requests from every connection funnel through one submission sequence,
//!   so per-request determinism holds whatever the interleaving.
//!
//! [`Server::shutdown`] wakes each thread explicitly: a loopback connection
//! unblocks the acceptor, closing the read half of each socket unblocks its
//! reader, and a shutdown event ends the dispatcher's loop. It is graceful:
//! in-flight (already submitted) requests complete and their responses are
//! flushed; bytes not yet decoded off a socket are dropped, and a frame cut
//! short this way is a quiet close, not a protocol error.

use super::codec::{encode_error_frame, encode_outcome_frame};
use super::frame::{self, FrameKind, ReadFrame, DEFAULT_MAX_PAYLOAD};
use crate::serve::{
    ConnectionStats, ResidentRegistry, ServeConfig, ServeStats, ShardedRunner, SolveOutcome,
    SolveRequest,
};
use pram::WorkspacePool;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the acceptor backs off after a failed `accept` (out of file
/// descriptors, typically) before trying again.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Configuration of a [`Server`].
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Configuration of the underlying
    /// [`ShardedRunner`] (shard count, queue
    /// depth, routing, admission).
    pub serve: ServeConfig,
    /// Cap on accepted frame payload lengths; frames claiming more are
    /// rejected before any allocation
    /// ([`FrameError::Oversize`](super::FrameError::Oversize)). Defaults to
    /// [`DEFAULT_MAX_PAYLOAD`].
    pub max_frame_payload: u32,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            serve: ServeConfig::default(),
            max_frame_payload: DEFAULT_MAX_PAYLOAD,
        }
    }
}

/// Per-connection atomic counters (shared between the connection's reader,
/// its writer, and [`Server::shutdown`]'s final report).
#[derive(Default)]
struct ConnCounters {
    requests: AtomicU64,
    responses: AtomicU64,
    protocol_errors: AtomicU64,
}

/// Connection bookkeeping shared by the acceptor, the readers and
/// [`Server::shutdown`].
#[derive(Default)]
struct Conns {
    stopping: AtomicBool,
    readers: Mutex<Vec<JoinHandle<()>>>,
    writers: Mutex<Vec<JoinHandle<()>>>,
    counters: Mutex<BTreeMap<u64, Arc<ConnCounters>>>,
    /// A clone of each open connection's socket, so shutdown can close its
    /// read half and wake the reader. A reader removes its entry on exit.
    live: Mutex<BTreeMap<u64, TcpStream>>,
}

/// What flows to the dispatcher: connection events from the acceptor and
/// the readers, wake-ups from the runner's workers, and the final shutdown.
enum Event {
    Connect {
        conn: u64,
        writer: mpsc::Sender<WriterMsg>,
    },
    Submit {
        conn: u64,
        correlation: u64,
        request: SolveRequest,
    },
    Disconnect {
        conn: u64,
    },
    /// A worker posted an outcome (or its death notice) to the runner.
    Completed,
    /// Sent by [`Server::shutdown`] once every reader has exited.
    Shutdown,
}

/// What flows from the dispatcher (or a reader, for codec rejections) to a
/// connection's writer.
enum WriterMsg {
    Outcome {
        correlation: u64,
        outcome: Box<SolveOutcome>,
    },
    Error {
        correlation: u64,
        code: u16,
        message: String,
    },
}

/// The `MISP 1` socket front-end over a [`ShardedRunner`]. See the
/// [module docs](self) for the thread architecture and the
/// [`net` docs](crate::net) for the protocol.
pub struct Server {
    addr: SocketAddr,
    conns: Arc<Conns>,
    events: mpsc::Sender<Event>,
    acceptor: Option<JoinHandle<()>>,
    dispatcher: Option<JoinHandle<ServeStats>>,
}

impl Server {
    /// Binds a listener, spawns the runner's worker shards and the
    /// front-end threads, and starts accepting connections. Bind to port 0
    /// for an ephemeral loopback port ([`local_addr`](Self::local_addr)
    /// reports the assignment).
    pub fn bind(
        addr: impl ToSocketAddrs,
        registry: Arc<ResidentRegistry>,
        config: &NetConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let conns = Arc::new(Conns::default());
        let (events_tx, events_rx) = mpsc::channel::<Event>();

        let wake = {
            let events = events_tx.clone();
            Arc::new(move || {
                let _ = events.send(Event::Completed);
            })
        };
        let pool = WorkspacePool::default(); // `spawn` sizes it
        let runner = ShardedRunner::spawn(registry, &config.serve, pool, Some(wake));
        let dispatcher = pram::pool::spawn_worker("net-dispatcher".into(), None, move || {
            dispatch(runner, events_rx)
        });

        let acceptor = {
            let conns = Arc::clone(&conns);
            let events = events_tx.clone();
            let max_payload = config.max_frame_payload;
            pram::pool::spawn_worker("net-acceptor".into(), None, move || {
                let mut next_conn = 0u64;
                loop {
                    let accepted = listener.accept();
                    // `stop` raises the flag, then connects once to wake
                    // this accept.
                    if conns.stopping.load(Ordering::Acquire) {
                        return;
                    }
                    match accepted {
                        Ok((stream, _)) => {
                            // A socket that cannot be configured (peer
                            // already gone, typically) is dropped.
                            let _ =
                                spawn_connection(next_conn, stream, max_payload, &conns, &events);
                            next_conn += 1;
                        }
                        Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
                    }
                }
            })
        };

        Ok(Server {
            addr,
            conns,
            events: events_tx,
            acceptor: Some(acceptor),
            dispatcher: Some(dispatcher),
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: stops accepting, completes every already
    /// submitted request, flushes the responses, joins all threads, and
    /// returns the final [`ServeStats`] with
    /// [`connections`](ServeStats::connections) filled in (one entry per
    /// connection ever accepted, including already-closed ones).
    ///
    /// # Panics
    /// Panics if the dispatcher panicked, which is how a dead worker shard
    /// surfaces (see [`ShardedRunner::collect_ordered`]).
    pub fn shutdown(mut self) -> ServeStats {
        self.stop().expect("net: dispatcher thread panicked")
    }

    fn stop(&mut self) -> Option<ServeStats> {
        self.conns.stopping.store(true, Ordering::Release);
        if let Some(h) = self.acceptor.take() {
            // Wake the blocked accept; a wildcard bind answers on loopback.
            let mut wake = self.addr;
            match wake.ip() {
                IpAddr::V4(ip) if ip.is_unspecified() => wake.set_ip(Ipv4Addr::LOCALHOST.into()),
                IpAddr::V6(ip) if ip.is_unspecified() => wake.set_ip(Ipv6Addr::LOCALHOST.into()),
                _ => {}
            }
            let _ = TcpStream::connect(wake);
            let _ = h.join();
        }
        // The live set is complete now. The write halves stay open so the
        // drained responses still flush.
        for stream in self.conns.live.lock().expect("live sockets").values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        for h in self.conns.readers.lock().expect("reader list").drain(..) {
            let _ = h.join();
        }
        // Every submission is queued ahead of this event. The dispatcher
        // drains outstanding outcomes to the writers, then drops their queues.
        let _ = self.events.send(Event::Shutdown);
        let stats = self.dispatcher.take().map(|h| {
            let mut stats = h.join().expect("net: dispatcher thread panicked");
            stats.connections = self
                .conns
                .counters
                .lock()
                .expect("connection counters")
                .iter()
                .map(|(&connection, c)| ConnectionStats {
                    connection,
                    requests: c.requests.load(Ordering::Relaxed),
                    responses: c.responses.load(Ordering::Relaxed),
                    protocol_errors: c.protocol_errors.load(Ordering::Relaxed),
                })
                .collect();
            stats
        });
        for h in self.conns.writers.lock().expect("writer list").drain(..) {
            let _ = h.join();
        }
        stats
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.dispatcher.is_some() {
            let _ = self.stop();
        }
    }
}

/// Spawns one connection's reader and writer threads.
fn spawn_connection(
    conn: u64,
    stream: TcpStream,
    max_payload: u32,
    conns: &Arc<Conns>,
    events: &mpsc::Sender<Event>,
) -> std::io::Result<()> {
    stream.set_nodelay(true)?;
    let write_half = stream.try_clone()?;
    let shutdown_handle = stream.try_clone()?;
    let conn_counters = Arc::new(ConnCounters::default());
    conns
        .counters
        .lock()
        .expect("connection counters")
        .insert(conn, Arc::clone(&conn_counters));
    conns
        .live
        .lock()
        .expect("live sockets")
        .insert(conn, shutdown_handle);

    let (writer_tx, writer_rx) = mpsc::channel::<WriterMsg>();
    // Registration precedes the reader spawn, so the dispatcher always
    // learns of the connection before its first request.
    let _ = events.send(Event::Connect {
        conn,
        writer: writer_tx.clone(),
    });

    let writer = {
        let counters = Arc::clone(&conn_counters);
        pram::pool::spawn_worker(format!("net-conn-{conn}-writer"), None, move || {
            write_loop(write_half, writer_rx, &counters)
        })
    };
    conns.writers.lock().expect("writer list").push(writer);

    let reader = {
        let conns = Arc::clone(conns);
        let events = events.clone();
        pram::pool::spawn_worker(format!("net-conn-{conn}-reader"), None, move || {
            read_loop(
                conn,
                stream,
                max_payload,
                &conns.stopping,
                &events,
                writer_tx,
                &conn_counters,
            );
            conns.live.lock().expect("live sockets").remove(&conn);
            // On shutdown the writer stays registered, so the dispatcher's
            // drain still reaches it.
            if !conns.stopping.load(Ordering::Acquire) {
                let _ = events.send(Event::Disconnect { conn });
            }
        })
    };
    conns.readers.lock().expect("reader list").push(reader);
    Ok(())
}

/// One connection's request pump: frames off the socket, decoded requests
/// into the dispatcher's queue. Returns when the peer closes, the codec
/// rejects a frame, or shutdown closes the read half.
fn read_loop(
    conn: u64,
    mut stream: TcpStream,
    max_payload: u32,
    stopping: &AtomicBool,
    events: &mpsc::Sender<Event>,
    writer: mpsc::Sender<WriterMsg>,
    counters: &ConnCounters,
) {
    loop {
        let read = frame::read_frame(&mut stream, max_payload);
        // Whatever a read returns once shutdown has begun (a frame cut
        // short included) is a quiet close, not a protocol error.
        if stopping.load(Ordering::Acquire) {
            return;
        }
        let (code, message) = match read {
            Ok(ReadFrame::Frame(FrameKind::Request, payload)) => {
                match super::codec::decode_request_payload(&payload) {
                    Ok((correlation, request)) => {
                        counters.requests.fetch_add(1, Ordering::Relaxed);
                        let submit = Event::Submit {
                            conn,
                            correlation,
                            request,
                        };
                        if events.send(submit).is_err() {
                            return;
                        }
                        continue;
                    }
                    Err(e) => (e.code(), e.to_string()),
                }
            }
            // Outcome/error frames only flow server → client.
            Ok(ReadFrame::Frame(_, _)) => (
                108,
                "unexpected frame kind on a server connection".to_string(),
            ),
            Ok(ReadFrame::Eof) => return,
            Err(crate::Error::Frame(e)) => (e.code(), e.to_string()),
            Err(_) => return, // socket error: the connection is gone
        };
        counters.protocol_errors.fetch_add(1, Ordering::Relaxed);
        let _ = writer.send(WriterMsg::Error {
            correlation: 0,
            code,
            message,
        });
        return;
    }
}

/// One connection's response pump: encodes and writes every message queued
/// for this connection, in queue order. Exits when the queue closes (the
/// reader and the dispatcher have both dropped their senders) or the
/// socket dies.
fn write_loop(mut stream: TcpStream, queue: mpsc::Receiver<WriterMsg>, counters: &ConnCounters) {
    while let Ok(msg) = queue.recv() {
        let bytes = match msg {
            WriterMsg::Outcome {
                correlation,
                outcome,
            } => encode_outcome_frame(correlation, &outcome),
            WriterMsg::Error {
                correlation,
                code,
                message,
            } => encode_error_frame(correlation, code, &message),
        };
        if stream.write_all(&bytes).is_err() {
            return; // peer gone; keep draining is pointless
        }
        counters.responses.fetch_add(1, Ordering::Relaxed);
    }
    let _ = stream.flush();
}

/// The dispatcher loop: the single owner of the [`ShardedRunner`]. It
/// blocks on the event channel alone; after each event (a submission, or a
/// worker's wake-up) it drains every finished outcome, so responses stream
/// back while later requests are still arriving. Returns the runner's final
/// stats (connection counters are attached by [`Server::shutdown`]).
fn dispatch(mut runner: ShardedRunner, events: mpsc::Receiver<Event>) -> ServeStats {
    let mut writers: BTreeMap<u64, mpsc::Sender<WriterMsg>> = BTreeMap::new();
    // ticket → (connection, correlation): which socket each outcome goes
    // back out on, and as which client-side request.
    let mut routes: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    // The workers' wake-ups hold senders, so the channel never disconnects
    // while the runner lives: only `Shutdown` ends this loop.
    while let Ok(event) = events.recv() {
        match event {
            Event::Connect { conn, writer } => {
                writers.insert(conn, writer);
            }
            Event::Submit {
                conn,
                correlation,
                request,
            } => {
                let ticket = runner.submit(request);
                routes.insert(ticket, (conn, correlation));
            }
            Event::Disconnect { conn } => {
                // Outcomes still in flight for this connection will find no
                // writer and be dropped on delivery.
                writers.remove(&conn);
            }
            Event::Completed => {}
            Event::Shutdown => break,
        }
        while let Some(out) = runner.try_collect_one() {
            deliver(&writers, &mut routes, out);
        }
    }
    // Shutdown drain: every submitted request still completes and is
    // flushed to its connection's writer before the queues close.
    let rest = runner.outstanding() as usize;
    for out in runner.collect_streaming(rest) {
        deliver(&writers, &mut routes, out);
    }
    runner.stats()
}

fn deliver(
    writers: &BTreeMap<u64, mpsc::Sender<WriterMsg>>,
    routes: &mut BTreeMap<u64, (u64, u64)>,
    outcome: SolveOutcome,
) {
    if let Some((conn, correlation)) = routes.remove(&outcome.ticket) {
        if let Some(writer) = writers.get(&conn) {
            let _ = writer.send(WriterMsg::Outcome {
                correlation,
                outcome: Box::new(outcome),
            });
        }
    }
}
