//! Load drivers: one generator thread sends a phase's items, in order,
//! either on schedule (open loop) or as fast as a bounded window of
//! outstanding writes allows (closed loop). Completions are timed on a
//! separate thread per connection (TCP) or per engine (in process).
//!
//! An open-loop request is timed from when it was *due*, so a stall also
//! charges the requests queued behind it; a closed-loop request from when
//! it was sent.

use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver};
use std::time::{Duration, Instant};

use llog_engine::{CommitTicket, ShardedEngine};
use llog_server::proto::{decode_response, encode_request, frame, read_frame};
use llog_server::{Request, Response};
use llog_types::ObjectId;

use crate::gen::{Item, Req};
use crate::trace::{Open, Tracer};

/// How a phase paces its items.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Send each item at its due time.
    Open,
    /// Keep at most `window` writes outstanding; stop sending at `deadline`.
    Closed { window: usize, deadline: Duration },
}

/// What one phase observed.
#[derive(Debug, Default)]
pub struct PhaseOut {
    /// Write latencies (ns) up to the durable acknowledgement.
    pub put_ns: Vec<u64>,
    /// Read latencies (ns).
    pub get_ns: Vec<u64>,
    /// How late the generator sent each open-loop request (ns).
    pub late_ns: Vec<u64>,
    /// Items issued: always a prefix of the phase's item list.
    pub sent: usize,
    /// Requests that failed or were refused.
    pub failed: u64,
    /// Writes acknowledged durable.
    pub acked: u64,
    /// User payload bytes of the issued writes.
    pub user_bytes: u64,
    /// From the phase start to the last completion.
    pub elapsed: Duration,
    /// Requests still outstanding when the last one was sent.
    pub backlog_end: usize,
    /// Every read's object and the value it returned.
    pub reads: Vec<(ObjectId, Vec<u8>)>,
}

impl PhaseOut {
    fn absorb(&mut self, c: Completions) {
        self.put_ns.extend(c.put_ns);
        self.get_ns.extend(c.get_ns);
        self.failed += c.failed;
        self.acked += c.acked;
        self.reads.extend(c.reads);
        self.elapsed = self.elapsed.max(c.last);
    }
}

#[derive(Default)]
struct Completions {
    put_ns: Vec<u64>,
    get_ns: Vec<u64>,
    failed: u64,
    acked: u64,
    reads: Vec<(ObjectId, Vec<u8>)>,
    /// Time of the last completion, from the phase start.
    last: Duration,
}

/// Sleep until `due` without spinning: a spinning generator would take a
/// core from the program on a small machine. The lateness this costs is
/// measured and reported.
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// Send/complete bookkeeping shared by both drivers: returns when the item
/// should be considered sent from, and records lateness.
fn pace_item(pace: Pace, start: Instant, item: &Item, out: &mut PhaseOut) -> Option<Instant> {
    match pace {
        Pace::Open => {
            let due = start + Duration::from_nanos(item.due_ns);
            sleep_until(due);
            let now = Instant::now();
            out.late_ns.push((now - due).as_nanos() as u64);
            Some(due)
        }
        Pace::Closed { deadline, .. } => {
            let now = Instant::now();
            (now - start < deadline).then_some(now)
        }
    }
}

fn channel_bound(pace: Pace) -> usize {
    match pace {
        Pace::Open => 1 << 20,
        Pace::Closed { window, .. } => window.max(1),
    }
}

struct TcpMeta {
    origin: Instant,
    object: ObjectId,
    span: Open,
    req: u64,
}

fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let s = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    s.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    let r = s.try_clone().map_err(|e| format!("clone: {e}"))?;
    r.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("read timeout: {e}"))?;
    Ok((s, BufReader::new(r)))
}

fn tcp_receiver(
    mut reader: BufReader<TcpStream>,
    rx: Receiver<TcpMeta>,
    start: Instant,
    done: &AtomicUsize,
    tr: &Tracer,
) -> Completions {
    let mut c = Completions::default();
    while let Ok(meta) = rx.recv() {
        let resp = read_frame(&mut reader)
            .map_err(|e| e.to_string())
            .and_then(|f| f.ok_or_else(|| "connection closed".to_string()))
            .and_then(|p| decode_response(&p).map_err(|e| e.to_string()));
        let now = Instant::now();
        let ns = (now - meta.origin).as_nanos() as u64;
        match resp {
            Ok(Response::Ack { .. }) => {
                c.put_ns.push(ns);
                c.acked += 1;
                tr.close(meta.span, "server.put", 0, meta.req);
            }
            Ok(Response::Value { value, .. }) => {
                c.get_ns.push(ns);
                c.reads.push((meta.object, value));
                tr.close(meta.span, "server.get", 0, meta.req);
            }
            Ok(_) => c.failed += 1,
            Err(_) => {
                // The stream is unusable; everything still queued fails.
                c.failed += 1 + rx.iter().count() as u64;
                break;
            }
        }
        c.last = now - start;
        done.fetch_add(1, Ordering::Relaxed);
    }
    c
}

/// Drive `items` over two connections to the server at `addr`: writes on
/// one, reads on the other. The server answers each connection in request
/// order, so a read never waits behind a write's fsync.
pub fn tcp(addr: SocketAddr, items: &[Item], pace: Pace, tr: &Tracer) -> Result<PhaseOut, String> {
    let (mut put_w, put_r) = connect(addr)?;
    let (mut get_w, get_r) = connect(addr)?;
    let bound = channel_bound(pace);
    let (put_tx, put_rx) = sync_channel::<TcpMeta>(bound);
    let (get_tx, get_rx) = sync_channel::<TcpMeta>(bound);
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let mut out = PhaseOut::default();
    std::thread::scope(|s| {
        let (done_ref, tr_ref) = (&done, tr);
        let hp = s.spawn(move || tcp_receiver(put_r, put_rx, start, done_ref, tr_ref));
        let hg = s.spawn(move || tcp_receiver(get_r, get_rx, start, done_ref, tr_ref));
        for (i, item) in items.iter().enumerate() {
            let Some(origin) = pace_item(pace, start, item, &mut out) else {
                break;
            };
            let req_id = i as u64 + 1;
            let (object, request, w, tx) = match &item.req {
                Req::Write(op) => {
                    let value = op
                        .put_value
                        .as_ref()
                        .expect("the server only takes blind puts");
                    out.user_bytes += op.user_bytes;
                    let object = op.writes[0];
                    let r = Request::Put {
                        req_id,
                        object,
                        value: value.as_bytes().to_vec(),
                    };
                    (object, r, &mut put_w, &put_tx)
                }
                Req::Read(x) => (*x, Request::Get { req_id, object: *x }, &mut get_w, &get_tx),
            };
            let span = tr.open();
            let meta = TcpMeta {
                origin,
                object,
                span,
                req: req_id,
            };
            if tx.send(meta).is_err() {
                out.failed += 1;
                break;
            }
            out.sent += 1;
            let bytes = frame(&encode_request(&request));
            if w.write_all(&bytes).is_err() {
                out.failed += 1;
                break;
            }
        }
        out.backlog_end = out.sent - done.load(Ordering::Relaxed);
        drop(put_tx);
        drop(get_tx);
        for h in [hp, hg] {
            out.absorb(h.join().expect("receiver thread panicked"));
        }
    });
    Ok(out)
}

struct LocalMeta {
    origin: Instant,
    ticket: CommitTicket,
    req: u64,
}

/// Drive `items` against an in-process engine: writes through
/// `ShardedEngine::execute`, each durable acknowledgement awaited by a
/// waiter thread in issue order; reads through `read_value_snapshot` on the
/// generator thread.
pub fn local(engine: &ShardedEngine, items: &[Item], pace: Pace, tr: &Tracer) -> PhaseOut {
    let (tx, rx) = sync_channel::<LocalMeta>(channel_bound(pace));
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let mut out = PhaseOut::default();
    let mut reads = Completions::default();
    std::thread::scope(|s| {
        let done_ref = &done;
        let waiter = s.spawn(move || {
            let mut c = Completions::default();
            for meta in rx.iter() {
                let o = tr.open();
                let ok = meta.ticket.wait();
                tr.close(o, "engine.ticket_wait", 0, meta.req);
                let now = Instant::now();
                if ok {
                    c.put_ns.push((now - meta.origin).as_nanos() as u64);
                    c.acked += 1;
                } else {
                    c.failed += 1;
                }
                c.last = now - start;
                done_ref.fetch_add(1, Ordering::Relaxed);
            }
            c
        });
        for (i, item) in items.iter().enumerate() {
            let Some(origin) = pace_item(pace, start, item, &mut out) else {
                break;
            };
            out.sent += 1;
            let req = i as u64 + 1;
            match &item.req {
                Req::Write(op) => {
                    out.user_bytes += op.user_bytes;
                    let r = tr.time("engine.execute", req, || {
                        engine.execute(
                            op.kind,
                            op.reads.clone(),
                            op.writes.clone(),
                            op.transform.clone(),
                        )
                    });
                    match r {
                        Ok(ticket) => tx
                            .send(LocalMeta {
                                origin,
                                ticket,
                                req,
                            })
                            .expect("waiter thread alive"),
                        Err(_) => {
                            out.failed += 1;
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Req::Read(x) => {
                    let r = tr.time("storage.snapshot_read", req, || {
                        engine.read_value_snapshot(*x)
                    });
                    let now = Instant::now();
                    match r {
                        Ok(v) => {
                            reads.get_ns.push((now - origin).as_nanos() as u64);
                            reads.reads.push((*x, v.as_bytes().to_vec()));
                        }
                        Err(_) => reads.failed += 1,
                    }
                    reads.last = now - start;
                    done.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        out.backlog_end = out.sent - done.load(Ordering::Relaxed);
        drop(tx);
        out.absorb(waiter.join().expect("waiter thread panicked"));
    });
    out.absorb(reads);
    out
}
