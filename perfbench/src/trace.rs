//! Critical-path attribution over a traced run, with the buckets folded
//! into per-layer names.
//!
//! `simnet::causal::attribute_window` and `bench::latency`'s breakdowns
//! scan every span of the run for each window they split. A run records
//! hundreds of thousands of spans, so [`SpanIndex`] hands them only the
//! spans that can matter: those overlapping the window, plus every span of
//! the traces involved. Both functions ignore all other spans, so the
//! buckets are the same as over the full span list. A saturated SMR
//! request still overlaps too many spans for that; [`Splitter`] computes
//! the same split with one sweep over the run.

use std::collections::{BTreeMap, HashMap};

use simnet::causal::cat;
use simnet::CausalSpan;

/// Time slice of the overlap index (µs).
const SLICE_US: u64 = 1_000;

/// Every bucket the analyzers produce, with the per-layer metric it feeds.
pub const BUCKETS: [(&str, &str); 10] = [
    (cat::QUEUE, "client.queue_us"),
    (cat::NIC, "simnet.nic_us"),
    (cat::FLIGHT, "simnet.flight_us"),
    ("leader-election", "cnc.election_us"),
    ("value-discovery", "cnc.discovery_us"),
    ("agreement", "cnc.agreement_us"),
    ("decision", "cnc.decision_us"),
    (cat::FSYNC, "storage.fsync_us"),
    (cat::COORD, "store.coord_us"),
    (cat::UNTRACED, "trace.untraced_us"),
];

/// Overlap and trace-id index over one run's spans.
pub struct SpanIndex<'a> {
    spans: &'a [CausalSpan],
    slices: Vec<Vec<u32>>,
    by_trace: HashMap<u64, Vec<u32>>,
}

impl<'a> SpanIndex<'a> {
    pub fn new(spans: &'a [CausalSpan]) -> Self {
        let last = spans.iter().map(|s| s.end).max().unwrap_or(0);
        let mut slices = vec![Vec::new(); (last / SLICE_US + 1) as usize];
        let mut by_trace: HashMap<u64, Vec<u32>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            for slot in &mut slices[(s.start / SLICE_US) as usize..=(s.end / SLICE_US) as usize] {
                slot.push(i as u32);
            }
            by_trace.entry(s.trace_id).or_default().push(i as u32);
        }
        SpanIndex {
            spans,
            slices,
            by_trace,
        }
    }

    /// Spans overlapping `[start, end]` plus every span of `traces`.
    pub fn subset(&self, start: u64, end: u64, traces: &[u64]) -> Vec<CausalSpan> {
        let hi = ((end / SLICE_US) as usize).min(self.slices.len() - 1);
        let lo = ((start / SLICE_US) as usize).min(hi);
        let mut ids: Vec<u32> = self.slices[lo..=hi].concat();
        for t in traces.iter().filter(|&&t| t != 0) {
            ids.extend(self.by_trace.get(t).into_iter().flatten());
        }
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .map(|i| self.spans[i as usize].clone())
            .collect()
    }
}

/// `attribute_window`'s bucket precedence (it is private to simnet; the
/// cross-check in [`Splitter::disagreements`] catches any drift).
fn priority(c: &str) -> u32 {
    match c {
        cat::FSYNC => 6,
        cat::NIC => 5,
        cat::QUEUE => 4,
        "leader-election" | "value-discovery" | "agreement" | "decision" => 3,
        cat::FLIGHT => 2,
        _ => 1,
    }
}

fn attributable(s: &CausalSpan) -> bool {
    s.cat != cat::OP && s.cat != cat::MARK && s.end > s.start
}

/// `attribute_window` for runs too large for it.
///
/// `attribute_window` compares every span overlapping a window with every
/// other, which is quadratic in the ~10⁴ spans that overlap one saturated
/// SMR request. Its rule is: at each instant the highest-precedence span of
/// the request's own trace wins; where the own trace has no span, the
/// highest-precedence span of any trace wins; where there is none, the
/// instant is untraced. The second case does not depend on the request,
/// so one sweep over the run computes it for all requests; only the few
/// own-trace spans are examined per request.
pub struct Splitter<'a> {
    own: HashMap<u64, Vec<&'a CausalSpan>>,
    global: BTreeMap<&'static str, Coverage>,
}

/// Where one bucket wins over all spans: disjoint sorted intervals, and
/// prefix sums of their lengths.
type Coverage = (Vec<(u64, u64)>, Vec<u64>);

impl<'a> Splitter<'a> {
    pub fn new(spans: &'a [CausalSpan]) -> Self {
        let mut own: HashMap<u64, Vec<&CausalSpan>> = HashMap::new();
        let mut events: Vec<(u64, bool, &'static str)> = Vec::new();
        for s in spans.iter().filter(|s| attributable(s)) {
            own.entry(s.trace_id).or_default().push(s);
            events.push((s.start, true, s.cat));
            events.push((s.end, false, s.cat));
        }
        events.sort_unstable_by_key(|e| e.0);
        let mut active: BTreeMap<(u32, &'static str), u64> = BTreeMap::new();
        let mut global: BTreeMap<&'static str, Coverage> = BTreeMap::new();
        let mut i = 0;
        let mut prev: Option<(u64, &'static str)> = None;
        while i < events.len() {
            let t = events[i].0;
            while i < events.len() && events[i].0 == t {
                let (_, open, c) = events[i];
                let n = active.entry((priority(c), c)).or_insert(0);
                if open {
                    *n += 1;
                } else {
                    *n -= 1;
                }
                i += 1;
            }
            if let Some((since, c)) = prev.take() {
                let (iv, _) = global.entry(c).or_default();
                match iv.last_mut() {
                    Some(last) if last.1 == since => last.1 = t,
                    _ => iv.push((since, t)),
                }
            }
            prev = active
                .iter()
                .rev()
                .find(|(_, &n)| n > 0)
                .map(|(&(_, c), _)| (t, c));
        }
        for (iv, sums) in global.values_mut() {
            let mut acc = 0;
            *sums = iv
                .iter()
                .map(|&(a, b)| {
                    acc += b - a;
                    acc
                })
                .collect();
        }
        Splitter { own, global }
    }

    /// Time in `[a, b)` that bucket `c` wins over all spans.
    fn global_time(&self, c: &'static str, a: u64, b: u64) -> u64 {
        let Some((iv, sums)) = self.global.get(c) else {
            return 0;
        };
        // Covered length of [0, x) for bucket c.
        let upto = |x: u64| -> u64 {
            let k = iv.partition_point(|&(s, _)| s < x);
            if k == 0 {
                return 0;
            }
            let (s, e) = iv[k - 1];
            sums[k - 1] - (e - e.min(x)) - (s - s.min(x))
        };
        upto(b) - upto(a)
    }

    /// Splits the window `[start, end)` of the request traced as `trace`
    /// (0 for a request without a root span) into buckets.
    pub fn split(&self, trace: u64, start: u64, end: u64) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        if end <= start {
            return out;
        }
        let own: Vec<&CausalSpan> = match (trace, self.own.get(&trace)) {
            (0, _) | (_, None) => Vec::new(),
            (_, Some(v)) => v
                .iter()
                .copied()
                .filter(|s| s.end > start && s.start < end)
                .collect(),
        };
        let mut cuts = vec![start, end];
        for s in &own {
            cuts.push(s.start.clamp(start, end));
            cuts.push(s.end.clamp(start, end));
        }
        cuts.sort_unstable();
        cuts.dedup();
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1]);
            let best = own
                .iter()
                .filter(|s| s.start <= a && s.end >= b)
                .map(|s| (priority(s.cat), s.cat))
                .max();
            if let Some((_, c)) = best {
                *out.entry(c).or_insert(0) += b - a;
                continue;
            }
            let mut covered = 0;
            for &c in self.global.keys() {
                let t = self.global_time(c, a, b);
                if t > 0 {
                    *out.entry(c).or_insert(0) += t;
                    covered += t;
                }
            }
            if b - a > covered {
                *out.entry(cat::UNTRACED).or_insert(0) += b - a - covered;
            }
        }
        out
    }

    /// How many of the given `(trace, start, end)` windows
    /// [`Splitter::split`] splits differently from `attribute_window`.
    pub fn disagreements(&self, index: &SpanIndex, windows: &[(u64, u64, u64)]) -> u64 {
        windows
            .iter()
            .filter(|&&(trace, a, b)| {
                let reference =
                    simnet::causal::attribute_window(&index.subset(a, b, &[trace]), trace, a, b);
                self.split(trace, a, b) != reference
            })
            .count() as u64
    }
}

/// Bucket totals over many windows, plus the end-to-end total they must
/// add up to.
#[derive(Default)]
pub struct Breakdown {
    pub totals: BTreeMap<&'static str, u64>,
    pub latency_total: u64,
    pub windows: u64,
    /// Windows whose buckets did not sum to their latency, or that used a
    /// bucket outside [`BUCKETS`].
    pub unreconciled: u64,
    /// Windows cross-checked against `attribute_window`, and how many of
    /// them it split differently.
    pub checked: u64,
    pub disagreed: u64,
}

impl Breakdown {
    /// Adds one window's split of a latency of `latency` µs.
    pub fn add(&mut self, split: BTreeMap<&'static str, u64>, latency: u64) {
        if split.values().sum::<u64>() != latency {
            self.unreconciled += 1;
        }
        for (k, v) in split {
            if !BUCKETS.iter().any(|(b, _)| *b == k) {
                self.unreconciled += 1;
            }
            *self.totals.entry(k).or_insert(0) += v;
        }
        self.latency_total += latency;
        self.windows += 1;
    }

    /// Mean µs per window for each bucket, under its per-layer name.
    pub fn means(&self) -> Vec<(&'static str, f64)> {
        BUCKETS
            .iter()
            .map(|(b, name)| {
                let total = self.totals.get(b).copied().unwrap_or(0);
                (*name, total as f64 / self.windows.max(1) as f64)
            })
            .collect()
    }

    /// Whether every window's buckets summed exactly to its latency, so
    /// the bucket means sum to the mean latency.
    pub fn reconciles(&self) -> bool {
        self.unreconciled == 0 && self.totals.values().sum::<u64>() == self.latency_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::causal::attribute_window;

    fn span(trace_id: u64, id: u64, c: &'static str, start: u64, end: u64) -> CausalSpan {
        CausalSpan {
            trace_id,
            id,
            parent: 0,
            node: 0,
            site: 0,
            name: String::new(),
            cat: c,
            start,
            end,
        }
    }

    #[test]
    fn splitter_matches_attribute_window() {
        let cats = [
            cat::NIC,
            cat::FLIGHT,
            cat::QUEUE,
            cat::FSYNC,
            "agreement",
            "decision",
            "leader-election",
            cat::OP,
        ];
        let mut x: u64 = 0x2545_f491_4f6c_dd1d;
        let mut next = |m: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % m
        };
        let spans: Vec<CausalSpan> = (0..300)
            .map(|i| {
                let start = next(10_000);
                let c = cats[next(cats.len() as u64) as usize];
                span(1 + next(3), i + 1, c, start, start + next(800))
            })
            .collect();
        let splitter = Splitter::new(&spans);
        // Trace 0 owns no span here, as for requests without a root span.
        for trace in 0..4 {
            for _ in 0..25 {
                let a = next(11_000);
                let b = a + next(3_000);
                assert_eq!(
                    splitter.split(trace, a, b),
                    attribute_window(&spans, trace, a, b),
                    "trace {trace} [{a}, {b})"
                );
            }
        }
    }

    #[test]
    fn subset_attribution_equals_full_attribution() {
        let spans = vec![
            span(1, 1, cat::NIC, 100, 1_500),
            span(2, 2, "agreement", 0, 9_000),
            span(1, 3, cat::FLIGHT, 5_000, 5_400),
            span(3, 4, cat::QUEUE, 20_000, 21_000),
        ];
        let idx = SpanIndex::new(&spans);
        for (a, b) in [
            (0, 2_000),
            (1_200, 5_200),
            (4_000, 30_000),
            (25_000, 26_000),
        ] {
            let sub = idx.subset(a, b, &[1]);
            assert_eq!(
                attribute_window(&sub, 1, a, b),
                attribute_window(&spans, 1, a, b)
            );
        }
    }
}
