//! The traced run's instrumentation, all of it on the benchmark's side
//! of the public API: spans around calls into each layer, a connector
//! decorator that records them, and the self-time arithmetic.
//!
//! A span is `{id, parent, action, name, start_ns, end_ns}`. Spans of
//! one action share its `action`; a span recorded on a thread that has
//! no action in flight (a serving worker) has none.

use crate::stores::Lang;
use polyframe::prelude::*;
use polyframe_datamodel::Value;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Position in the recorder.
    pub id: u32,
    /// The span this one ran inside, if any.
    pub parent: Option<u32>,
    /// Index into [`Recorder::actions`] of the action it belongs to.
    pub action: Option<u32>,
    /// One of the fixed layer-boundary names.
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// `end - start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What an action was: the personality it ran on and the operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct ActionLabel {
    /// Personality.
    pub lang: Lang,
    /// Operation label (`e03`, `pt_eq`, `batch`, …).
    pub op: &'static str,
    /// Whether this is the operation's final text replayed at the
    /// store's own entry (its spans are the store's, not `core`'s).
    pub replayed: bool,
}

impl ActionLabel {
    /// `cypher/pt_eq`, or `cypher/replay:pt_eq` for a replay.
    pub fn text(&self) -> String {
        let replay = if self.replayed { "replay:" } else { "" };
        format!("{}/{replay}{}", self.lang.name(), self.op)
    }
}

thread_local! {
    /// `(action index, action span id)` of the action in flight on this
    /// thread: how a connector callback finds its parent.
    static IN_FLIGHT: Cell<Option<(u32, u32)>> = const { Cell::new(None) };
}

struct Recorded {
    spans: Vec<Span>,
    actions: Vec<ActionLabel>,
}

/// Collects spans in memory until the run ends.
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Recorded>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            // Room for a few seconds of point operations, so that the
            // list rarely grows (and copies itself) inside a span.
            inner: Mutex::new(Recorded {
                spans: Vec::with_capacity(1 << 20),
                actions: Vec::with_capacity(1 << 18),
            }),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Recorded> {
        self.inner
            .lock()
            .expect("no recording thread panics while holding the span list")
    }

    /// Open an action on this thread: reserves its `action` span (closed
    /// by [`Recorder::end_action`]) so children can name it as parent.
    pub fn begin_action(&self, label: ActionLabel) -> u64 {
        let mut inner = self.lock();
        let action = inner.actions.len() as u32;
        inner.actions.push(label);
        let id = inner.spans.len() as u32;
        IN_FLIGHT.with(|c| c.set(Some((action, id))));
        // The clock is read last, so the bookkeeping above is not part
        // of the action.
        let start = self.now();
        inner.spans.push(Span {
            id,
            parent: None,
            action: Some(action),
            name: "action",
            start_ns: start,
            end_ns: start,
        });
        start
    }

    /// Close the action opened on this thread; returns its duration.
    pub fn end_action(&self) -> u64 {
        let end = self.now();
        let (_, id) = IN_FLIGHT
            .with(Cell::take)
            .expect("end_action follows begin_action on the same thread");
        let mut inner = self.lock();
        let span = &mut inner.spans[id as usize];
        span.end_ns = end;
        span.duration_ns()
    }

    /// Record `[start_ns, now]` as a child of this thread's action (or
    /// as a parentless span on a thread that has none).
    pub fn record(&self, name: &'static str, start_ns: u64) {
        let end_ns = self.now();
        let (action, parent) = match IN_FLIGHT.with(Cell::get) {
            Some((action, id)) => (Some(action), Some(id)),
            None => (None, None),
        };
        let mut inner = self.lock();
        let id = inner.spans.len() as u32;
        inner.spans.push(Span {
            id,
            parent,
            action,
            name,
            start_ns,
            end_ns,
        });
    }

    /// Time `f` as a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = f();
        self.record(name, start);
        out
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> (Vec<Span>, Vec<ActionLabel>) {
        let inner = self.lock();
        (inner.spans.clone(), inner.actions.clone())
    }
}

/// Nanoseconds of `[start, end]` that `children` cover (their union,
/// clipped to the interval).
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for (s, e) in clipped {
        let from = s.max(reach);
        if e > from {
            covered += e - from;
            reach = e;
        }
    }
    covered
}

/// Per-action breakdown: the action's duration, the duration of each
/// named child, and what no child accounts for.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ActionBreakdown {
    /// The `action` span.
    pub total_ns: u64,
    /// Child span name → summed duration.
    pub children: BTreeMap<&'static str, u64>,
    /// The action's self time: its duration minus the part its
    /// children cover.
    pub unattributed_ns: u64,
}

/// Break every closed action down, grouped by label.
pub fn breakdowns(
    spans: &[Span],
    actions: &[ActionLabel],
) -> BTreeMap<ActionLabel, Vec<ActionBreakdown>> {
    let mut by_action: Vec<Vec<&Span>> = vec![Vec::new(); actions.len()];
    for span in spans {
        if let Some(action) = span.action {
            by_action[action as usize].push(span);
        }
    }
    let mut out: BTreeMap<ActionLabel, Vec<ActionBreakdown>> = BTreeMap::new();
    for (label, group) in actions.iter().zip(by_action) {
        let Some(root) = group.iter().find(|s| s.name == "action") else {
            continue;
        };
        let mut breakdown = ActionBreakdown {
            total_ns: root.duration_ns(),
            ..ActionBreakdown::default()
        };
        let mut child_intervals = Vec::new();
        for span in group.iter().filter(|s| s.parent == Some(root.id)) {
            *breakdown.children.entry(span.name).or_default() += span.duration_ns();
            child_intervals.push((span.start_ns, span.end_ns));
        }
        breakdown.unattributed_ns =
            breakdown.total_ns - covered_ns(root.start_ns, root.end_ns, &child_intervals);
        out.entry(*label).or_default().push(breakdown);
    }
    out
}

/// At most this many actions' spans go into `trace.json`; the metrics
/// use all of them.
pub const TRACE_FILE_ACTIONS: u32 = 2_000;

/// Render spans as the `trace.json` document.
pub fn trace_json(
    workload: &str,
    seed: u64,
    timer_cost_ns: f64,
    spans: &[Span],
    actions: &[ActionLabel],
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"timer_cost_ns\":{timer_cost_ns:.1},\
         \"actions_recorded\":{},\"actions_written\":{},\"spans\":[\n",
        actions.len(),
        actions.len().min(TRACE_FILE_ACTIONS as usize),
    ));
    let mut first = true;
    for span in spans {
        if span.action.is_some_and(|a| a >= TRACE_FILE_ACTIONS) {
            continue;
        }
        if span.action.is_none() && span.id >= TRACE_FILE_ACTIONS * 8 {
            continue;
        }
        if !first {
            out.push_str(",\n");
        }
        first = false;
        let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
        let action = span.action.map_or("null".to_string(), |a| {
            format!("\"{}#{a}\"", actions[a as usize].text())
        });
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"action\":{action},\"name\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{}}}",
            span.id, span.name, span.start_ns, span.end_ns
        ));
    }
    out.push_str("\n]}\n");
    out
}

/// The cost of one `Instant::now` pair, in nanoseconds: what every span
/// adds to the interval around it.
pub fn timer_cost_ns() -> f64 {
    const PAIRS: u32 = 200_000;
    let t0 = Instant::now();
    let mut sink = 0u128;
    for _ in 0..PAIRS {
        let a = Instant::now();
        sink += std::hint::black_box(a.elapsed()).as_nanos();
    }
    std::hint::black_box(sink);
    t0.elapsed().as_nanos() as f64 / f64::from(PAIRS)
}

/// A request as the connector was about to ship it.
#[derive(Debug, Clone, PartialEq)]
pub struct Captured {
    /// Final (preprocessed) query text.
    pub query: String,
    /// Namespace of the frame's base dataset.
    pub namespace: String,
    /// Collection of the frame's base dataset.
    pub collection: String,
}

/// Where a [`Probe`] sits and so what it records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeMode {
    /// Under an `AFrame`: `core.preprocess`, `core.dispatch` and
    /// `core.postprocess` around the delegated calls.
    ClientSide,
    /// Between a `Server`'s workers and the backend: `serve.execute`
    /// around `dispatch` only (the shaping calls reach it through the
    /// session and are already recorded client-side).
    ServerSide,
    /// Under an `AFrame`, but `dispatch` keeps the request and refuses
    /// it, touching no store: how the replay pass learns the final text
    /// of a never-seen query.
    CaptureOnly,
}

/// The benchmark's connector decorator: delegates everything, records a
/// span around each delegated call, and keeps the last request.
pub struct Probe {
    inner: Arc<dyn DatabaseConnector>,
    recorder: Arc<Recorder>,
    mode: ProbeMode,
    last: Mutex<Option<Captured>>,
}

impl Probe {
    /// Wrap `inner`.
    pub fn new(
        inner: Arc<dyn DatabaseConnector>,
        recorder: Arc<Recorder>,
        mode: ProbeMode,
    ) -> Probe {
        Probe {
            inner,
            recorder,
            mode,
            last: Mutex::new(None),
        }
    }

    /// The most recent request, if one was captured since the last take.
    pub fn take_captured(&self) -> Option<Captured> {
        self.last
            .lock()
            .expect("capture slot is never held across a panic")
            .take()
    }
}

impl DatabaseConnector for Probe {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn rules(&self) -> RuleSet {
        self.inner.rules()
    }

    fn preprocess(&self, query: &str) -> String {
        if self.mode == ProbeMode::ServerSide {
            return self.inner.preprocess(query);
        }
        self.recorder
            .span("core.preprocess", || self.inner.preprocess(query))
    }

    fn dispatch(&self, req: &QueryRequest) -> Result<QueryResponse, PolyFrameError> {
        match self.mode {
            ProbeMode::ClientSide => self
                .recorder
                .span("core.dispatch", || self.inner.dispatch(req)),
            ProbeMode::ServerSide => self
                .recorder
                .span("serve.execute", || self.inner.dispatch(req)),
            ProbeMode::CaptureOnly => {
                *self
                    .last
                    .lock()
                    .expect("capture slot is never held across a panic") = Some(Captured {
                    query: req.query.clone(),
                    namespace: req.namespace.clone(),
                    collection: req.collection.clone(),
                });
                Err(PolyFrameError::Backend(
                    "captured for replay, not executed".to_string(),
                ))
            }
        }
    }

    fn postprocess(&self, rows: Vec<Value>) -> Vec<Value> {
        if self.mode == ProbeMode::ServerSide {
            return self.inner.postprocess(rows);
        }
        self.recorder
            .span("core.postprocess", || self.inner.postprocess(rows))
    }

    fn dataset_ref(&self, namespace: &str, collection: &str) -> String {
        self.inner.dataset_ref(namespace, collection)
    }

    fn explain_plan(&self, query: &str) -> Option<polyframe_observe::ExplainNode> {
        self.inner.explain_plan(query)
    }

    fn fault_plan(&self) -> Option<Arc<FaultPlan>> {
        self.inner.fault_plan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            action: Some(0),
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn covered_time_is_the_union_of_clipped_children() {
        assert_eq!(covered_ns(0, 100, &[]), 0);
        assert_eq!(covered_ns(0, 100, &[(10, 30), (50, 60)]), 30);
        // Overlapping children count once; a child past the end is clipped.
        assert_eq!(covered_ns(0, 100, &[(10, 40), (30, 50), (90, 150)]), 50);
        // A child outside the interval covers nothing.
        assert_eq!(covered_ns(100, 200, &[(0, 50), (250, 300)]), 0);
        // Nested children: the inner one adds nothing.
        assert_eq!(covered_ns(0, 100, &[(10, 90), (20, 30)]), 80);
    }

    #[test]
    fn breakdown_reports_what_no_child_accounts_for() {
        let spans = vec![
            span(0, None, "action", 0, 1_000),
            span(1, Some(0), "core.rewrite", 0, 100),
            span(2, Some(0), "core.preprocess", 150, 160),
            span(3, Some(0), "core.dispatch", 200, 900),
            span(4, Some(0), "core.postprocess", 910, 920),
        ];
        let actions = vec![ActionLabel {
            lang: Lang::Sql,
            op: "e01",
            replayed: false,
        }];
        let by_label = breakdowns(&spans, &actions);
        let b = &by_label[&actions[0]][0];
        assert_eq!(b.total_ns, 1_000);
        assert_eq!(b.children["core.rewrite"], 100);
        assert_eq!(b.children["core.dispatch"], 700);
        assert_eq!(b.unattributed_ns, 1_000 - 100 - 10 - 700 - 10);
        let attributed: u64 = b.children.values().sum();
        assert_eq!(attributed + b.unattributed_ns, b.total_ns);
    }

    #[test]
    fn recorder_links_children_to_the_action_in_flight() {
        let rec = Recorder::new();
        rec.begin_action(ActionLabel {
            lang: Lang::Mongo,
            op: "pt_eq",
            replayed: false,
        });
        rec.span("core.dispatch", || std::hint::black_box(1 + 1));
        let total = rec.end_action();
        // Outside an action a span has neither parent nor action.
        rec.span("serve.execute", || ());
        let (spans, actions) = rec.snapshot();
        assert_eq!(actions.len(), 1);
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "action");
        assert_eq!(spans[0].duration_ns(), total);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].action, Some(0));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!((spans[2].parent, spans[2].action), (None, None));
        let doc = trace_json("wisc_point", 7, 25.0, &spans, &actions);
        let parsed = polyframe_datamodel::parse_json(&doc).expect("trace.json parses");
        let listed = parsed.get_path("spans");
        assert_eq!(listed.as_array().map(<[Value]>::len), Some(3));
        assert_eq!(
            listed.as_array().unwrap()[1].get_path("action"),
            Value::str("mongo/pt_eq#0")
        );
    }
}
