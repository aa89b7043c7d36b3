//! Spans recorded in memory around the benchmark's calls into the program,
//! and the self-time analysis built on them.
//!
//! A span has a name (`<layer>.<what>`, e.g. `rbma.serve_batch`), a start,
//! an end, a parent and a run id; the spans of one simulation run (or one
//! SO-BMA series) share the run id. A span's *self time* is its duration
//! minus the time its children cover: children on the same thread nest and
//! are subtracted as a sum, children on other threads (sweep workers) may
//! overlap each other and are subtracted as the union of their intervals.
//! Summed over all spans, self times give the *lane time*: the thread-time
//! of the traced passes, which equals their wall time when everything runs
//! on one thread.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the process-wide epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u32,
    /// `0` for a root span.
    pub parent: u32,
    pub run: u32,
    pub thread: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_ID: AtomicU32 = AtomicU32::new(1);
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static THREAD: u32 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// A span that has started and not yet ended.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    id: u32,
    parent: u32,
    run: u32,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// Starts a root span, which also starts a run.
    pub fn root(name: &'static str) -> Open {
        Self::start(name, 0, None)
    }

    /// Starts a child span in the same run.
    pub fn child(&self, name: &'static str) -> Open {
        Self::start(name, self.id, Some(self.run))
    }

    /// Starts a child span that begins a run of its own.
    pub fn child_run(&self, name: &'static str) -> Open {
        Self::start(name, self.id, None)
    }

    fn start(name: &'static str, parent: u32, run: Option<u32>) -> Open {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        Open {
            id,
            parent,
            run: run.unwrap_or(id),
            name,
            start_ns: now_ns(),
        }
    }

    pub fn close(self) -> Span {
        Span {
            id: self.id,
            parent: self.parent,
            run: self.run,
            thread: THREAD.with(|t| *t),
            name: self.name,
            start_ns: self.start_ns,
            end_ns: now_ns(),
        }
    }
}

/// Runs `f` inside a child span of `parent`, appending the span to `log`.
pub fn timed<T>(
    log: &mut Vec<Span>,
    parent: &Open,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let open = parent.child(name);
    let out = f();
    log.push(open.close());
    out
}

/// Self time per span name, plus the lane time and the roots' self time.
#[derive(Debug, Default)]
pub struct Attribution {
    /// Self nanoseconds per span name.
    pub self_ns: HashMap<&'static str, u64>,
    /// Total duration and count per span name.
    pub total_ns: HashMap<&'static str, (u64, u64)>,
    /// Σ self time over every span (thread-time of the traced passes).
    pub lane_ns: u64,
    /// Self time of the root spans: time inside a pass but outside every
    /// call into the program.
    pub root_self_ns: u64,
}

impl Attribution {
    /// Self seconds of one layer (all span names with that prefix).
    pub fn layer_self_s(&self, layer: &str) -> f64 {
        let ns: u64 = self
            .self_ns
            .iter()
            .filter(|(name, _)| name.split('.').next() == Some(layer))
            .map(|(_, ns)| ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Total seconds and span count of one span name.
    pub fn total(&self, name: &str) -> (f64, u64) {
        self.total_ns
            .get(name)
            .map_or((0.0, 0), |&(ns, n)| (ns as f64 * 1e-9, n))
    }

    pub fn unattributed_share(&self) -> f64 {
        if self.lane_ns == 0 {
            return 0.0;
        }
        self.root_self_ns as f64 / self.lane_ns as f64
    }
}

/// Computes self times. Every span's parent must be in `spans` (or 0).
pub fn attribute(spans: &[Span]) -> Attribution {
    let by_id: HashMap<u32, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut same_thread: HashMap<u32, u64> = HashMap::new();
    let mut cross: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        let parent = by_id
            .get(&s.parent)
            .unwrap_or_else(|| panic!("span {} has no recorded parent", s.name));
        if parent.thread == s.thread {
            *same_thread.entry(s.parent).or_default() += s.dur_ns();
        } else {
            cross
                .entry(s.parent)
                .or_default()
                .push((s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)));
        }
    }
    let mut out = Attribution::default();
    for s in spans {
        let covered = same_thread.get(&s.id).copied().unwrap_or(0)
            + cross.get_mut(&s.id).map_or(0, |iv| union_len(iv));
        let own = s.dur_ns().saturating_sub(covered);
        *out.self_ns.entry(s.name).or_default() += own;
        let total = out.total_ns.entry(s.name).or_default();
        total.0 += s.dur_ns();
        total.1 += 1;
        out.lane_ns += own;
        if s.parent == 0 {
            out.root_self_ns += own;
        }
    }
    out
}

fn union_len(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = 0;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Writes the spans as tab-separated lines (`id parent run thread name
/// start_ns end_ns`).
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trun\tthread\tname\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.run, s.thread, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 1,
            thread,
            name: ["root.pass", "a.x", "b.y", "c.z"][id as usize % 4],
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn same_thread_children_are_subtracted_as_a_sum() {
        let spans = [
            span(4, 0, 0, 0, 100),
            span(1, 4, 0, 10, 40),
            span(2, 4, 0, 50, 60),
        ];
        let a = attribute(&spans);
        assert_eq!(a.root_self_ns, 60);
        assert_eq!(a.lane_ns, 100);
    }

    #[test]
    fn cross_thread_children_are_subtracted_as_a_union() {
        // Two workers overlap on [20, 50]; the parent waits on [10, 90].
        let spans = [
            span(4, 0, 0, 0, 100),
            span(1, 4, 1, 10, 50),
            span(2, 4, 2, 20, 90),
        ];
        let a = attribute(&spans);
        assert_eq!(a.root_self_ns, 20);
        assert_eq!(a.lane_ns, 20 + 40 + 70);
        assert_eq!(a.layer_self_s("a"), 40e-9);
    }
}
