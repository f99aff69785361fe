//! In-memory spans recorded around the benchmark's own calls into each
//! layer's public functions. Spans are kept in memory and written once,
//! when the run ends.

use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// A span that has started but not ended.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    start_ns: u64,
}

/// Span recorder; does nothing (beyond one branch) when off.
pub struct Tracer {
    on: bool,
    t0: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start a span (id 0 when tracing is off).
    pub fn open(&self) -> Open {
        if !self.on {
            return Open { id: 0, start_ns: 0 };
        }
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            start_ns: self.now_ns(),
        }
    }

    /// End a span opened by [`open`](Self::open).
    pub fn close(&self, open: Open, name: &'static str, parent: u64, req: u64) {
        if !self.on {
            return;
        }
        let span = Span {
            id: open.id,
            parent,
            req,
            name,
            start_ns: open.start_ns,
            end_ns: self.now_ns(),
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Time `f` as a root span named `name`.
    pub fn time<R>(&self, name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
        let o = self.open();
        let r = f();
        self.close(o, name, 0, req);
        r
    }

    /// Durations (ns) of every span named `name`, in recording order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .lock()
            .expect("span buffer poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Write every span as one tab-separated line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
        for s in spans.iter() {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_on_keeps_parents() {
        let off = Tracer::new(false);
        off.time("x", 1, || ());
        assert!(off.durations("x").is_empty());

        let on = Tracer::new(true);
        let parent = on.open();
        let child = on.open();
        on.close(child, "child", parent.id, 7);
        on.close(parent, "parent", 0, 7);
        let spans = on.spans.lock().unwrap();
        assert_eq!(spans[0].parent, spans[1].id);
        drop(spans);
        assert_eq!(on.durations("child").len(), 1);
        assert_eq!(on.durations("parent").len(), 1);
    }
}
