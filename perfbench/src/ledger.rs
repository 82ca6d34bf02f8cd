//! The per-layer time ledger of a traced campaign, built from the spans the
//! campaign's recorder collected.
//!
//! Every `trial` span is split into the self time of the network-layer spans
//! nested inside it (a span's duration minus the part its child spans cover)
//! and the remainder no layer span covers: planning, injection and undo,
//! classification, journaling and scheduling. By construction the parts add
//! up exactly to the summed trial-span time.

use rustfi_obs::{ObsSnapshot, SpanRecord};
use std::collections::BTreeMap;

/// Layer kinds reported by name; every other kind is folded into `other`.
pub const KINDS: [&str; 9] = [
    "conv", "fc", "bn", "relu", "maxpool", "gap", "residual", "seq", "other",
];

/// Span kind the campaign gives each trial.
const TRIAL: &str = "trial";

/// Time attribution of one traced campaign.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Ledger {
    /// Trial spans seen.
    pub trials: u64,
    /// Summed duration of every trial span, nanoseconds.
    pub trial_ns: u64,
    /// Self time per layer kind (see [`KINDS`]) inside trial spans.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Trial-span time outside every layer span.
    pub unattributed_ns: u64,
    /// Forward-hook dispatches counted by the network.
    pub hook_dispatches: u64,
    /// Spans the recorder dropped at its retention cap.
    pub spans_dropped: u64,
}

fn kind_bucket(kind: &str) -> &'static str {
    KINDS
        .iter()
        .find(|&&k| k == kind)
        .copied()
        .unwrap_or("other")
}

impl Ledger {
    /// Attributes every span of `snap`.
    pub fn from_snapshot(snap: &ObsSnapshot) -> Self {
        let mut ledger = Ledger {
            hook_dispatches: snap
                .counters
                .get(rustfi_obs::names::NN_HOOK_DISPATCHES)
                .copied()
                .unwrap_or(0),
            spans_dropped: snap.dropped_spans,
            ..Ledger::default()
        };
        let mut by_thread: BTreeMap<u32, Vec<&SpanRecord>> = BTreeMap::new();
        for s in &snap.spans {
            by_thread.entry(s.tid).or_default().push(s);
        }
        for spans in by_thread.values_mut() {
            // Parents before children: earlier start first, and of two spans
            // starting together the longer (a trial before its layers).
            spans.sort_by_key(|s| {
                (
                    s.start_ns,
                    std::cmp::Reverse(s.start_ns + s.dur_ns),
                    s.kind != TRIAL,
                )
            });
            ledger.attribute_thread(spans);
        }
        ledger
    }

    /// Walks one thread's spans in start order with a stack of open spans.
    fn attribute_thread(&mut self, spans: &[&SpanRecord]) {
        // (span, nanoseconds covered by its children, under a trial?)
        let mut stack: Vec<(&SpanRecord, u64, bool)> = Vec::new();
        for &s in spans {
            while stack
                .last()
                .is_some_and(|(top, ..)| top.start_ns + top.dur_ns <= s.start_ns)
            {
                let (done, covered, under) = stack.pop().expect("non-empty");
                self.close(done, covered, under);
            }
            let under = match stack.last_mut() {
                Some((_, covered, under)) => {
                    *covered += s.dur_ns;
                    *under
                }
                None => s.kind == TRIAL,
            };
            stack.push((s, 0, under));
        }
        while let Some((done, covered, under)) = stack.pop() {
            self.close(done, covered, under);
        }
    }

    fn close(&mut self, span: &SpanRecord, covered: u64, under_trial: bool) {
        let own = span.dur_ns.saturating_sub(covered);
        if span.kind == TRIAL {
            self.trials += 1;
            self.trial_ns += span.dur_ns;
            self.unattributed_ns += own;
        } else if under_trial {
            *self.self_ns.entry(kind_bucket(span.kind)).or_insert(0) += own;
        }
    }

    /// Folds another traced run into this one.
    pub fn absorb(&mut self, other: &Ledger) {
        self.trials += other.trials;
        self.trial_ns += other.trial_ns;
        for (k, v) in &other.self_ns {
            *self.self_ns.entry(k).or_insert(0) += v;
        }
        self.unattributed_ns += other.unattributed_ns;
        self.hook_dispatches += other.hook_dispatches;
        self.spans_dropped += other.spans_dropped;
    }

    /// Summed layer self time, nanoseconds.
    pub fn attributed_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }

    /// Mean self time per trial of layer kind `kind`, microseconds.
    pub fn self_us_per_trial(&self, kind: &str) -> f64 {
        let ns = self.self_ns.get(kind).copied().unwrap_or(0);
        ns as f64 / 1e3 / self.trials.max(1) as f64
    }

    /// Share of trial-span time outside every layer span.
    pub fn unattributed_share(&self) -> f64 {
        self.unattributed_ns as f64 / self.trial_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: &'static str, start_ns: u64, dur_ns: u64, tid: u32) -> SpanRecord {
        SpanRecord {
            name: kind.to_string(),
            kind,
            layer: (kind != TRIAL).then_some(0),
            start_ns,
            dur_ns,
            tid,
        }
    }

    #[test]
    fn self_times_and_unattributed_time_add_up_to_trial_time() {
        // Per thread: trial [0,100) holding seq [10,90) holding conv [20,50)
        // and relu [50,60). Merge order puts layer spans before the trial.
        let mut snap = ObsSnapshot::default();
        for tid in [1, 2] {
            let base = 1_000 * tid as u64;
            snap.spans.push(span("conv", base + 20, 30, tid));
            snap.spans.push(span("relu", base + 50, 10, tid));
            snap.spans.push(span("seq", base + 10, 80, tid));
            snap.spans.push(span(TRIAL, base, 100, tid));
        }
        let l = Ledger::from_snapshot(&snap);
        assert_eq!(l.trials, 2);
        assert_eq!(l.trial_ns, 200);
        assert_eq!(l.self_ns["conv"], 60);
        assert_eq!(l.self_ns["relu"], 20);
        assert_eq!(l.self_ns["seq"], 80);
        assert_eq!(l.unattributed_ns, 40);
        assert_eq!(l.attributed_ns() + l.unattributed_ns, l.trial_ns);
        assert_eq!(l.self_us_per_trial("conv"), 0.03);
    }

    #[test]
    fn layer_spans_outside_trials_are_not_attributed() {
        let mut snap = ObsSnapshot::default();
        snap.spans.push(span("flatten", 0, 5, 1));
        snap.spans.push(span("conv", 10, 5, 1));
        snap.spans.push(span(TRIAL, 10, 10, 1));
        let l = Ledger::from_snapshot(&snap);
        assert_eq!(l.self_ns.get("other"), None);
        assert_eq!(l.self_ns["conv"], 5);
        assert_eq!(l.unattributed_ns, 5);
    }
}
