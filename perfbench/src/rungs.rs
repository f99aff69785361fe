//! The per-layer ladder: the workload's own write stream driven one op at
//! a time through successively higher public entry points. The gap
//! between a rung and the rung below it is the self time of the layer in
//! between.
//!
//! | rung                           | entry point                              |
//! |--------------------------------|------------------------------------------|
//! | `ops.apply`                    | `TransformRegistry::apply`               |
//! | `rwgraph.add_op.w{64,1024}`    | `RWGraph::add_op`, graph held at window  |
//! | `wal.append`                   | `Wal::append`                            |
//! | `core.execute.w{64,1024}`      | `Engine::execute`, held by `install_one` |
//! | `storage.durable_ack`          | `ShardedEngine::execute` + ticket wait, file backends, server config |
//! | `server.put_rtt` / `get_rtt`   | lock-step `Client::put` / `Client::get`  |

use std::path::Path;

use llog_core::{Engine, EngineConfig, RWGraph};
use llog_ops::Operation;
use llog_server::proto::{decode_request, decode_response, encode_request, encode_response};
use llog_server::{Client, Request, Response, Server, ServerConfig};
use llog_storage::Metrics;
use llog_types::{Lsn, ObjectId, OpId, Value};
use llog_wal::{LogRecord, Wal};

use crate::gen::{registry, WriteOp, EXPENSIVE, VALUE_LEN};
use crate::stats::quantile;
use crate::trace::Tracer;
use crate::Report;

/// Timed ops per in-memory rung.
const TIMED: usize = 1000;
/// Timed ops per rung that waits for an fsync or a round trip.
const TIMED_DURABLE: usize = 300;
/// Windows (live rW nodes / uninstalled ops) the bookkeeping rungs hold.
const WINDOWS: [usize; 2] = [64, 1024];
/// Calls timed for the expensive transform.
const EXPENSIVE_CALLS: usize = 20;

/// Ops the ladder needs from the workload's generator.
pub const STREAM_LEN: usize = TIMED + 4 * 1024;

fn operation(i: usize, op: &WriteOp) -> Operation {
    Operation::new(
        OpId(i as u64 + 1),
        op.kind,
        op.reads.clone(),
        op.writes.clone(),
        op.transform.clone(),
    )
}

fn p50(tr: &Tracer, name: &str) -> f64 {
    quantile(&tr.durations(name), 0.5)
}

/// The value a `Put` frame carries for `op`: its own value for a put, else
/// a deterministic 64-byte stand-in.
fn frame_value(op: &WriteOp) -> Vec<u8> {
    match &op.put_value {
        Some(v) => v.as_bytes().to_vec(),
        None => op
            .transform
            .params
            .as_bytes()
            .iter()
            .cycle()
            .take(VALUE_LEN)
            .copied()
            .collect(),
    }
}

fn apply_rungs(ops: &[WriteOp], tr: &Tracer, r: &mut Report) -> Result<(), String> {
    let reg = registry();
    let mut state = std::collections::HashMap::<ObjectId, Value>::new();
    for (i, op) in ops
        .iter()
        .filter(|op| op.transform.fn_id != EXPENSIVE)
        .take(TIMED)
        .enumerate()
    {
        let inputs: Vec<Value> = op
            .reads
            .iter()
            .map(|x| state.get(x).cloned().unwrap_or_else(Value::empty))
            .collect();
        let outs = tr
            .time("ops.apply", i as u64, || {
                reg.apply(OpId(i as u64), &op.transform, &inputs, op.writes.len())
            })
            .map_err(|e| format!("apply: {e}"))?;
        for (x, v) in op.writes.iter().zip(outs) {
            state.insert(*x, v);
        }
    }
    let probe = WriteOp::rmw(EXPENSIVE, ObjectId(0), None, 7);
    let input = [Value::from_slice(&[0x5A; VALUE_LEN])];
    for i in 0..EXPENSIVE_CALLS {
        tr.time("ops.apply_expensive", i as u64, || {
            reg.apply(OpId(0), &probe.transform, &input, 1)
        })
        .map_err(|e| format!("apply: {e}"))?;
    }
    r.layer("ops.apply_ns", p50(tr, "ops.apply"), "ns");
    r.layer(
        "ops.apply_expensive_us",
        p50(tr, "ops.apply_expensive") / 1e3,
        "us",
    );
    Ok(())
}

fn rwgraph_rungs(ops: &[WriteOp], tr: &Tracer, r: &mut Report) {
    for (w, name, metric) in [
        (WINDOWS[0], "rwgraph.add_op.w64", "rwgraph.add_op_ns.w64"),
        (
            WINDOWS[1],
            "rwgraph.add_op.w1024",
            "rwgraph.add_op_ns.w1024",
        ),
    ] {
        let mut g = RWGraph::new();
        let mut timed = 0;
        for (i, op) in ops.iter().enumerate() {
            if timed == TIMED {
                break;
            }
            while g.len() >= w {
                let m = g.minimal_nodes()[0];
                g.remove_node(m);
            }
            let o = operation(i, op);
            // Warm up until the graph holds the window (or the stream can
            // no longer grow it), then time.
            if g.len() + 1 < w && ops.len() - i > TIMED - timed {
                g.add_op(&o);
                continue;
            }
            tr.time(name, i as u64, || g.add_op(&o));
            timed += 1;
        }
        r.layer(metric, p50(tr, name), "ns");
    }
}

fn wal_rung(ops: &[WriteOp], tr: &Tracer, r: &mut Report) {
    let mut wal = Wal::new(Metrics::new());
    for (i, op) in ops.iter().take(TIMED).enumerate() {
        let rec = LogRecord::Op(operation(i, op));
        tr.time("wal.append", i as u64, || wal.append(&rec));
    }
    r.layer("wal.append_ns", p50(tr, "wal.append"), "ns");
}

fn engine_rungs(ops: &[WriteOp], tr: &Tracer, r: &mut Report) -> Result<(), String> {
    for (w, name, metric) in [
        (WINDOWS[0], "core.execute.w64", "core.execute_ns.w64"),
        (WINDOWS[1], "core.execute.w1024", "core.execute_ns.w1024"),
    ] {
        let mut e = Engine::new(EngineConfig::default(), registry());
        let mut timed = 0;
        for (i, op) in ops.iter().enumerate() {
            if timed == TIMED {
                break;
            }
            let warm = e.uninstalled_count() + 1 < w && ops.len() - i > TIMED - timed;
            let (reads, writes, t) = (op.reads.clone(), op.writes.clone(), op.transform.clone());
            let o = tr.open();
            e.execute(op.kind, reads, writes, t)
                .map_err(|err| format!("execute: {err}"))?;
            if warm {
                continue;
            }
            tr.close(o, name, 0, i as u64);
            timed += 1;
            while e.uninstalled_count() > w {
                let install = if w == WINDOWS[0] {
                    "core.install_one"
                } else {
                    "core.install_one.w1024"
                };
                tr.time(install, i as u64, || e.install_one())
                    .map_err(|err| format!("install: {err}"))?;
            }
        }
        r.layer(metric, p50(tr, name), "ns");
    }
    r.layer("core.install_ns", p50(tr, "core.install_one"), "ns");
    Ok(())
}

/// The file-backed rungs: durable ack, snapshot read, then the server
/// round trips on the same engine.
fn durable_rungs(ops: &[WriteOp], dir: &Path, tr: &Tracer, r: &mut Report) -> Result<(), String> {
    let reg = registry();
    let engine = llog_server::boot::open_served(dir, 2, &reg).map_err(|e| format!("open: {e}"))?;
    let ops = &ops[..TIMED_DURABLE.min(ops.len())];
    for (i, op) in ops.iter().enumerate() {
        let parent = tr.open();
        let o = tr.open();
        let ticket = engine
            .execute(
                op.kind,
                op.reads.clone(),
                op.writes.clone(),
                op.transform.clone(),
            )
            .map_err(|e| format!("execute: {e}"))?;
        tr.close(o, "ack.execute", parent.id, i as u64);
        let o = tr.open();
        let ok = ticket.wait();
        tr.close(o, "ack.ticket_wait", parent.id, i as u64);
        tr.close(parent, "storage.durable_ack", 0, i as u64);
        if !ok {
            return Err("durable-ack rung: ticket never became durable".into());
        }
    }
    r.layer(
        "storage.durable_ack_ns",
        p50(tr, "storage.durable_ack"),
        "ns",
    );

    // Reads only once nothing is left to install, so the installer is idle
    // and the lock census counts nothing but the reads themselves.
    engine.install_all().map_err(|e| format!("install: {e}"))?;
    let locks = engine.engine_lock_count();
    for (i, op) in ops.iter().enumerate() {
        tr.time("rung.snapshot_read", i as u64, || {
            engine.read_value_snapshot(op.writes[0])
        })
        .map_err(|e| format!("snapshot read: {e}"))?;
    }
    let lock_delta = engine.engine_lock_count() - locks;
    r.layer(
        "engine.locks_per_get",
        lock_delta as f64 / ops.len() as f64,
        "count",
    );
    r.layer(
        "storage.snapshot_read_ns",
        p50(tr, "rung.snapshot_read"),
        "ns",
    );

    let server =
        Server::start(engine, ServerConfig::default()).map_err(|e| format!("server: {e}"))?;
    let mut c = Client::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
    for (i, op) in ops.iter().enumerate() {
        let value = frame_value(op);
        tr.time("server.put_rtt", i as u64, || c.put(op.writes[0], &value))
            .map_err(|e| format!("put: {e}"))?;
    }
    for (i, op) in ops.iter().enumerate() {
        let got = tr
            .time("server.get_rtt", i as u64, || c.get(op.writes[0]))
            .map_err(|e| format!("get: {e}"))?;
        if got.is_empty() {
            return Err(format!(
                "server rung: get of {:?} found nothing",
                op.writes[0]
            ));
        }
    }
    drop(c);
    server
        .shutdown()
        .shutdown()
        .map_err(|e| format!("shutdown: {e}"))?;
    let (put_rtt, get_rtt) = (p50(tr, "server.put_rtt"), p50(tr, "server.get_rtt"));
    r.layer("server.put_rtt_ns", put_rtt, "ns");
    r.layer("server.get_rtt_ns", get_rtt, "ns");
    r.layer(
        "server.self_put_ns",
        put_rtt - p50(tr, "storage.durable_ack"),
        "ns",
    );
    r.layer(
        "server.self_get_ns",
        get_rtt - p50(tr, "rung.snapshot_read"),
        "ns",
    );
    Ok(())
}

fn codec_rung(ops: &[WriteOp], tr: &Tracer, r: &mut Report) -> Result<(), String> {
    for (i, op) in ops.iter().take(TIMED).enumerate() {
        let req_id = i as u64 + 1;
        let (object, value) = (op.writes[0], frame_value(op));
        tr.time("server.codec", req_id, || -> Result<(), String> {
            let put = Request::Put {
                req_id,
                object,
                value,
            };
            let get = Request::Get { req_id, object };
            let ack = Response::Ack {
                req_id,
                lsn: Lsn(req_id),
            };
            for req in [put, get] {
                decode_request(&encode_request(&req)).map_err(|e| e.to_string())?;
            }
            decode_response(&encode_response(&ack)).map_err(|e| e.to_string())?;
            Ok(())
        })?;
    }
    r.layer("server.codec_ns", p50(tr, "server.codec"), "ns");
    Ok(())
}

/// Run every rung on `ops` (at least [`STREAM_LEN`] of the workload's
/// writes); `dir` is an empty scratch directory for the file-backed rungs.
pub fn run(ops: &[WriteOp], dir: &Path, tr: &Tracer, r: &mut Report) -> Result<(), String> {
    apply_rungs(ops, tr, r)?;
    rwgraph_rungs(ops, tr, r);
    wal_rung(ops, tr, r);
    engine_rungs(ops, tr, r)?;
    codec_rung(ops, tr, r)?;
    durable_rungs(ops, dir, tr, r)
}
