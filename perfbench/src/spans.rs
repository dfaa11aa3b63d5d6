//! In-memory span recorder for the traced mode.
//!
//! Spans are recorded only from the benchmark's own code, around each
//! call into a layer of the simulator. Each span carries a name, the
//! layer it times, start and end, its parent span and the run (round)
//! it belongs to. They stay in memory until the run ends, when self
//! times are computed and the spans are written as a Perfetto /
//! Chrome trace-event file.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use atc_bench::json::Value;
use atc_bench::trace_event::TraceEvents;

use crate::measure::Report;

/// Index of a recorded span.
pub type SpanId = usize;

/// One timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub run: u64,
    /// Track (thread) the span ran on: 0 is the main thread, suite
    /// workers are numbered from 1 in order of first appearance.
    pub track: u32,
}

/// Thread-safe span store. A disabled recorder costs one branch per
/// call and records nothing, so the untraced mode measures the bare
/// program.
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
    tracks: Mutex<Vec<std::thread::ThreadId>>,
}

impl Spans {
    pub fn new(enabled: bool) -> Spans {
        Spans {
            enabled,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
            tracks: Mutex::new(vec![std::thread::current().id()]),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn track(&self) -> u32 {
        let id = std::thread::current().id();
        let mut tracks = self.tracks.lock().expect("span track table poisoned");
        let idx = tracks.iter().position(|t| *t == id).unwrap_or_else(|| {
            tracks.push(id);
            tracks.len() - 1
        });
        idx as u32
    }

    /// Open a span; returns its id (`None` when disabled). Close it
    /// with [`end`](Self::end).
    pub fn begin(
        &self,
        name: impl Into<String>,
        layer: &'static str,
        parent: Option<SpanId>,
        run: u64,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name: name.into(),
            layer,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            run,
            track: self.track(),
        };
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    pub fn end(&self, id: Option<SpanId>) {
        if let Some(id) = id {
            let t = self.now_ns();
            self.spans.lock().expect("span store poisoned")[id].end_ns = t;
        }
    }

    /// Time `f` inside a span.
    pub fn time<R>(
        &self,
        name: &str,
        layer: &'static str,
        parent: Option<SpanId>,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, layer, parent, run);
        let r = f();
        self.end(id);
        r
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// children cover (children on other threads included — a parent that
/// waits on workers spends that time in them).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c) as f64 * 1e-9)
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += t;
    }
    out
}

/// Total self time per layer, in seconds.
pub fn self_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer).or_insert(0.0) += t;
    }
    out
}

/// Write the spans as a Perfetto-loadable trace-event file.
pub fn write_perfetto(path: &std::path::Path, spans: &[Span], title: &str) -> std::io::Result<()> {
    let mut trace = TraceEvents::new();
    trace.process_name(1, title);
    let mut tracks: Vec<u32> = spans.iter().map(|s| s.track).collect();
    tracks.sort_unstable();
    tracks.dedup();
    for t in tracks {
        let name = if t == 0 {
            "main".to_string()
        } else {
            format!("worker {t}")
        };
        trace.thread_name(1, t, &name);
    }
    for (i, s) in spans.iter().enumerate() {
        trace.complete(
            &s.name,
            s.layer,
            1,
            s.track,
            s.start_ns / 1000,
            (s.end_ns - s.start_ns) / 1000,
            vec![
                ("id".into(), Value::Number(i as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::Number(p as f64)),
                ),
                ("run".into(), Value::Number(s.run as f64)),
            ],
        );
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, trace.render())
}

/// Print self time per layer and per span name, and write the Perfetto
/// file.
pub fn finish(
    spans: &Spans,
    out_dir: &std::path::Path,
    workload: &str,
    seed: u64,
    report: &mut Report,
) -> Result<(), String> {
    let all = spans.snapshot();
    for (layer, s) in self_by_layer(&all) {
        report.line(format!("self time layer {layer:<16} {s:>10.4} s"));
    }
    for (name, s) in self_by_name(&all) {
        report.line(format!("self time span  {name:<28} {s:>10.4} s"));
    }
    let path = out_dir.join(format!("{workload}-seed{seed}.perfetto.json"));
    write_perfetto(&path, &all, &format!("perfbench {workload}"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    report.line(format!("spans: {} -> {}", all.len(), path.display()));
    Ok(())
}
