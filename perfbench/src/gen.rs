//! Seeded input generation and the single-threaded oracle.
//!
//! Every input a run sends is generated from the `--seed` argument before
//! the timed phase starts; the program only ever sees these requests.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use llog_ops::{builtin, OpKind, Transform, TransformFn, TransformRegistry};
use llog_testkit::TestRng;
use llog_types::{FnId, ObjectId, OpId, Value};

/// The benchmark's expensive transform (domain ids start at 100).
pub const EXPENSIVE: FnId = FnId(100);

/// Hash rounds per expensive apply: the order of an application step
/// (about 100 µs), the cost logical redo pays again per surviving op.
const EXPENSIVE_ROUNDS: u64 = 100_000;

/// Width of every value a put writes.
pub const VALUE_LEN: usize = 64;

/// An iterated hash over the readset: an 8-byte logged salt, an output
/// that is expensive to recompute.
struct IteratedHash;

impl TransformFn for IteratedHash {
    fn name(&self) -> &'static str {
        "perfbench/iterated-hash"
    }

    fn apply(
        &self,
        params: &[u8],
        inputs: &[Value],
        n_outputs: usize,
    ) -> llog_types::Result<Vec<Value>> {
        let mut state = fnv(FNV_OFFSET, params);
        for v in inputs {
            state = fnv(state, v.as_bytes());
        }
        for i in 0..EXPENSIVE_ROUNDS {
            state = state.rotate_left(31).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ i;
        }
        Ok((0..n_outputs)
            .map(|k| {
                let mut s = state ^ k as u64;
                let mut out = Vec::with_capacity(VALUE_LEN);
                while out.len() < VALUE_LEN {
                    s = s.rotate_left(17).wrapping_mul(0x0100_0000_01b3);
                    out.extend_from_slice(&s.to_le_bytes());
                }
                Value::from(out)
            })
            .collect())
    }
}

/// Builtins plus [`EXPENSIVE`].
pub fn registry() -> TransformRegistry {
    let mut r = TransformRegistry::with_builtins();
    r.register(EXPENSIVE, Arc::new(IteratedHash));
    r
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// A deterministic generator for one named stream of one seed.
pub fn rng(seed: u64, stream: &str) -> TestRng {
    TestRng::seed_from_u64(fnv(seed, stream.as_bytes()))
}

/// A write the benchmark issues: an operation for the in-process engine,
/// or (for a single `CONST` put) a `Put` frame for the server.
#[derive(Debug, Clone)]
pub struct WriteOp {
    pub kind: OpKind,
    pub reads: Vec<ObjectId>,
    pub writes: Vec<ObjectId>,
    pub transform: Transform,
    /// Bytes the user supplied: the value of a put, the params of a
    /// logical op.
    pub user_bytes: u64,
    /// The value of a blind single-object put (what a `Put` frame sends).
    pub put_value: Option<Value>,
}

impl WriteOp {
    /// A blind put of `value` to `x`.
    pub fn put(x: ObjectId, value: Value) -> WriteOp {
        WriteOp {
            kind: OpKind::Physical,
            reads: vec![],
            writes: vec![x],
            transform: Transform::new(
                builtin::CONST,
                builtin::encode_values(std::slice::from_ref(&value)),
            ),
            user_bytes: value.len() as u64,
            put_value: Some(value),
        }
    }

    /// A logical read-modify-write of `x` through `f`, also reading `also`.
    pub fn rmw(f: FnId, x: ObjectId, also: Option<ObjectId>, salt: u64) -> WriteOp {
        let mut reads = vec![x];
        reads.extend(also.filter(|&y| y != x));
        WriteOp {
            kind: OpKind::Logical,
            reads,
            writes: vec![x],
            transform: Transform::new(f, Value::from_slice(&salt.to_le_bytes())),
            user_bytes: 8,
            put_value: None,
        }
    }
}

/// One request of a phase.
#[derive(Debug, Clone)]
pub enum Req {
    Write(WriteOp),
    Read(ObjectId),
}

/// A request and when it is due, in ns from the phase start (0 for a
/// closed loop, which sends as soon as its window allows).
#[derive(Debug, Clone)]
pub struct Item {
    pub due_ns: u64,
    pub req: Req,
}

/// `n` random bytes.
pub fn bytes(rng: &mut TestRng, n: usize) -> Value {
    let mut v = vec![0u8; n];
    rng.fill(&mut v);
    Value::from(v)
}

/// Poisson arrival times (ns from 0) at `rate` per second over `dur_ns`.
pub fn poisson(rng: &mut TestRng, rate: f64, dur_ns: u64) -> Vec<u64> {
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.f64()).ln() / rate * 1e9;
        if t >= dur_ns as f64 {
            return out;
        }
        out.push(t as u64);
    }
}

/// Open-loop items: Poisson arrivals at `rate`, each a write with
/// probability `write_share`, drawn by `write` / `read`.
pub fn open_loop(
    rng: &mut TestRng,
    rate: f64,
    dur_ns: u64,
    write_share: f64,
    mut write: impl FnMut(&mut TestRng) -> WriteOp,
    mut read: impl FnMut(&mut TestRng) -> ObjectId,
) -> Vec<Item> {
    poisson(rng, rate, dur_ns)
        .into_iter()
        .map(|due_ns| Item {
            due_ns,
            req: if rng.ratio(write_share) {
                Req::Write(write(rng))
            } else {
                Req::Read(read(rng))
            },
        })
        .collect()
}

/// Closed-loop items: `n` writes.
pub fn closed_loop(
    rng: &mut TestRng,
    n: usize,
    mut write: impl FnMut(&mut TestRng) -> WriteOp,
) -> Vec<Item> {
    (0..n)
        .map(|_| Item {
            due_ns: 0,
            req: Req::Write(write(rng)),
        })
        .collect()
}

/// A single-threaded model of the issued write sequence: the current
/// value of every object and every value each object has ever held.
pub struct Oracle {
    registry: TransformRegistry,
    state: HashMap<ObjectId, Value>,
    seen: HashMap<ObjectId, HashSet<u64>>,
}

impl Oracle {
    pub fn new(initial: impl IntoIterator<Item = (ObjectId, Value)>) -> Oracle {
        let mut o = Oracle {
            registry: registry(),
            state: HashMap::new(),
            seen: HashMap::new(),
        };
        for (x, v) in initial {
            o.set(x, v);
        }
        o
    }

    fn set(&mut self, x: ObjectId, v: Value) {
        self.seen
            .entry(x)
            .or_default()
            .insert(fnv(FNV_OFFSET, v.as_bytes()));
        self.state.insert(x, v);
    }

    /// Apply one issued write.
    pub fn apply(&mut self, op: &WriteOp) -> Result<(), String> {
        let inputs: Vec<Value> = op.reads.iter().map(|x| self.value(*x)).collect();
        let outs = self
            .registry
            .apply(OpId(0), &op.transform, &inputs, op.writes.len())
            .map_err(|e| format!("oracle apply: {e}"))?;
        for (x, v) in op.writes.iter().zip(outs) {
            self.set(*x, v);
        }
        Ok(())
    }

    /// Apply the writes among `items`, in order.
    pub fn apply_items(&mut self, items: &[Item]) -> Result<(), String> {
        for it in items {
            if let Req::Write(op) = &it.req {
                self.apply(op)?;
            }
        }
        Ok(())
    }

    /// The object's current value (empty if never written).
    pub fn value(&self, x: ObjectId) -> Value {
        self.state.get(&x).cloned().unwrap_or_else(Value::empty)
    }

    /// Did `x` ever hold `v` (the empty value if never written)?
    pub fn admits(&self, x: ObjectId, v: &[u8]) -> bool {
        match self.seen.get(&x) {
            Some(s) => s.contains(&fnv(FNV_OFFSET, v)),
            None => v.is_empty(),
        }
    }

    /// Every object the oracle has seen written.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.state.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_items() {
        let gen = |seed| {
            let mut r = rng(seed, "t");
            open_loop(
                &mut r,
                1000.0,
                50_000_000,
                0.8,
                |r| WriteOp::put(ObjectId(r.next_u64() % 10), bytes(r, VALUE_LEN)),
                |r| ObjectId(r.next_u64() % 10),
            )
        };
        let (a, b) = (gen(7), gen(7));
        assert_eq!(a.len(), b.len());
        assert!(!a.is_empty());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.due_ns, y.due_ns);
            assert_eq!(format!("{:?}", x.req), format!("{:?}", y.req));
        }
        assert_ne!(format!("{:?}", gen(8)[0].req), format!("{:?}", a[0].req));
    }

    #[test]
    fn oracle_tracks_history_and_rejects_foreign_values() {
        let x = ObjectId(1);
        let mut o = Oracle::new([(x, Value::from("pre"))]);
        o.apply(&WriteOp::put(x, Value::from("a"))).unwrap();
        o.apply(&WriteOp::rmw(builtin::HASH_MIX, x, None, 9))
            .unwrap();
        assert!(o.admits(x, b"pre"));
        assert!(o.admits(x, b"a"));
        assert!(o.admits(x, o.value(x).as_bytes()));
        assert!(!o.admits(x, b"never written"));
        assert!(o.admits(ObjectId(2), b""));
    }
}
