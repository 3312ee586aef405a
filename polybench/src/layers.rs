//! From recorded spans to per-layer metrics: what the traced passes of
//! every workload share.

use crate::measure::{left_out_of_rounds, put, Metrics};
use crate::spans::{self, ActionBreakdown, ActionLabel, Span};
use crate::stats;
use crate::stores::Lang;
use std::collections::BTreeMap;
use std::path::Path;

/// Breakdowns of every action, by personality and operation label.
pub type ByLabel = BTreeMap<ActionLabel, Vec<ActionBreakdown>>;

/// Σ over a personality's operations of the median of `pick`, in
/// microseconds, with the smallest per-operation sample count — the
/// same shape as `round_ms`, so that a layer's share of a round is a
/// plain quotient.
pub fn layer_us(
    by_label: &ByLabel,
    lang: Lang,
    replayed: bool,
    pick: impl Fn(&ActionBreakdown) -> Option<u64>,
) -> Option<(f64, usize)> {
    let mut sum = 0.0;
    let mut least = usize::MAX;
    for (label, actions) in by_label {
        if label.lang != lang || label.replayed != replayed || left_out_of_rounds(lang, label.op) {
            continue;
        }
        let picked: Vec<f64> = actions
            .iter()
            .filter_map(&pick)
            .map(|ns| ns as f64)
            .collect();
        if picked.is_empty() {
            continue;
        }
        sum += stats::median(&picked) / 1e3;
        least = least.min(picked.len());
    }
    (least != usize::MAX).then_some((sum, least))
}

/// Picks the summed duration of the child spans called `name`.
pub fn child(name: &'static str) -> impl Fn(&ActionBreakdown) -> Option<u64> {
    move |b| b.children.get(name).copied()
}

/// The `core` layer of every personality: time building the
/// transformation chain, time inside `dispatch`, and the rest of the
/// action (preprocess, request build, retry driver, trace assembly,
/// postprocess, result set). Notes what no child span accounts for.
/// Returns Σ over personalities of the traced round, in microseconds.
pub fn put_core_layers(by_label: &ByLabel, metrics: &mut Metrics, notes: &mut Vec<String>) -> f64 {
    let mut traced_round_us = 0.0;
    for lang in Lang::ALL {
        let Some((total_us, _)) = layer_us(by_label, lang, false, |b| Some(b.total_ns)) else {
            continue;
        };
        traced_round_us += total_us;
        let own = layer_us(by_label, lang, false, |b| {
            let inside = b.children.get("core.rewrite")? + b.children.get("core.dispatch")?;
            Some(b.total_ns.saturating_sub(inside))
        });
        for (name, value) in [
            (
                "core.rewrite_us",
                layer_us(by_label, lang, false, child("core.rewrite")),
            ),
            (
                "core.dispatch_us",
                layer_us(by_label, lang, false, child("core.dispatch")),
            ),
            ("core.self_us", own),
        ] {
            if let Some((us, n)) = value {
                put(metrics, format!("{name}.{}", lang.name()), us, n);
            }
        }
        if let Some((unattributed_us, _)) =
            layer_us(by_label, lang, false, |b| Some(b.unattributed_ns))
        {
            notes.push(format!(
                "unattributed per action, {}: {unattributed_us:.2} us of a {total_us:.2} us round \
                 ({:.2} %) is in no child span of `action`",
                lang.name(),
                100.0 * unattributed_us / total_us
            ));
        }
    }
    traced_round_us
}

/// Write `trace.json`, creating its directory; a failure is reported
/// and does not fail the run (the metrics do not depend on the file).
pub fn write_trace(
    path: &Path,
    workload: &str,
    seed: u64,
    timer_cost_ns: f64,
    spans: &[Span],
    actions: &[ActionLabel],
) {
    let doc = spans::trace_json(workload, seed, timer_cost_ns, spans, actions);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, doc));
    if let Err(e) = written {
        eprintln!("polybench: cannot write {}: {e}", path.display());
    }
}
