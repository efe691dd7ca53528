//! Spans around the driver's calls into each layer, kept in memory and
//! written once at exit. No product types here.
//!
//! The publish driver is generic over [`Probe`]: with [`Off`] every hook is an
//! empty inlined function, so the untraced run that produces the end-to-end
//! metrics executes exactly the calls it would without tracing.

use crate::stats::median_or_zero;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How a span's interval was obtained.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Timed by the driver around a call it makes while serving the request.
    Measured,
    /// Synthesized from a duration the call returned (`CbStatistics`); its
    /// position inside the parent is nominal.
    Reported,
    /// A stage hidden inside a facade call, run again on the same inputs
    /// after the request's clock stopped.
    Replayed,
}

impl Source {
    fn label(self) -> &'static str {
        match self {
            Source::Measured => "measured",
            Source::Reported => "reported",
            Source::Replayed => "replayed",
        }
    }
}

/// Request id of spans recorded during set-up.
pub const SETUP: u32 = u32::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub request: u32,
    pub name: &'static str,
    /// Index of the parent span in [`Recorder::spans`].
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub source: Source,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

pub trait Probe {
    const ON: bool;
    /// Spans opened from now on belong to request `id` of `template`.
    fn request(&mut self, id: u32, template: &str);
    /// Open a measured span under the innermost open span.
    fn begin(&mut self, name: &'static str) -> usize;
    /// Close `span` (and anything still open inside it, so `?` is safe).
    fn end(&mut self, span: usize);
    fn rename(&mut self, span: usize, name: &'static str);
    /// Add a child of `parent` from a duration the call reported.
    fn reported(
        &mut self,
        parent: usize,
        name: &'static str,
        offset: Duration,
        length: Duration,
    ) -> usize;
    /// Open a replayed span under `parent`; close it with [`Probe::end`].
    fn replay(&mut self, parent: usize, name: &'static str) -> usize;
    /// Add to a named counter.
    fn count(&mut self, name: &'static str, by: u64);
    /// Record one observation of a named ratio.
    fn sample(&mut self, name: &'static str, value: f64);

    /// Run `f` inside a measured span called `name`.
    #[inline(always)]
    fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let span = self.begin(name);
        let out = f();
        self.end(span);
        out
    }
}

/// Tracing off.
pub struct Off;

impl Probe for Off {
    const ON: bool = false;
    #[inline(always)]
    fn request(&mut self, _: u32, _: &str) {}
    #[inline(always)]
    fn begin(&mut self, _: &'static str) -> usize {
        0
    }
    #[inline(always)]
    fn end(&mut self, _: usize) {}
    #[inline(always)]
    fn rename(&mut self, _: usize, _: &'static str) {}
    #[inline(always)]
    fn reported(&mut self, _: usize, _: &'static str, _: Duration, _: Duration) -> usize {
        0
    }
    #[inline(always)]
    fn replay(&mut self, _: usize, _: &'static str) -> usize {
        0
    }
    #[inline(always)]
    fn count(&mut self, _: &'static str, _: u64) {}
    #[inline(always)]
    fn sample(&mut self, _: &'static str, _: f64) {}
}

/// Tracing on.
pub struct Recorder {
    origin: Instant,
    request: u32,
    pub spans: Vec<Span>,
    /// The template each request instantiates.
    templates: Vec<(u32, String)>,
    open: Vec<usize>,
    pub counters: BTreeMap<&'static str, u64>,
    pub samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            request: SETUP,
            spans: Vec::new(),
            templates: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            samples: BTreeMap::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: Option<usize>, source: Source) -> usize {
        let now = self.now();
        self.spans.push(Span {
            request: self.request,
            name,
            parent,
            start_ns: now,
            end_ns: now,
            source,
        });
        self.spans.len() - 1
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Durations in ms of every span called `name`, set-up included.
    pub fn span_ms(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
    }

    /// Per-request total of the spans called `name`, in ms, for every
    /// request (set-up is not one) that has such a span.
    pub fn per_request_ms(&self, name: &str) -> Vec<f64> {
        let mut totals: BTreeMap<u32, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name && s.request != SETUP) {
            *totals.entry(s.request).or_default() += s.ms();
        }
        totals.into_values().collect()
    }

    pub fn median_sample(&self, name: &str) -> f64 {
        median_or_zero(self.samples.get(name).cloned().unwrap_or_default())
    }

    /// Span duration minus the time its children cover, per span.
    pub fn self_ms(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::ms).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.ms();
            }
        }
        own.iter().map(|v| v.max(0.0)).collect()
    }

    /// Median over requests of the share of the `root` span covered by its
    /// measured children — how much of a publish the named layers explain.
    pub fn coverage(&self, root: &str) -> f64 {
        let mut covered: BTreeMap<usize, f64> = BTreeMap::new();
        for s in &self.spans {
            if let (Some(p), Source::Measured) = (s.parent, s.source) {
                if self.spans[p].name == root {
                    *covered.entry(p).or_default() += s.ms();
                }
            }
        }
        median_or_zero(covered.iter().map(|(p, c)| c / self.spans[*p].ms().max(1e-9)).collect())
    }

    /// The trace file: a per-layer summary (totals and self time), the
    /// counters, and every span.
    pub fn to_json(&self, header: &str) -> String {
        struct Layer {
            source: Source,
            spans: usize,
            total: f64,
            own: f64,
        }
        let own = self.self_ms();
        let mut layers: BTreeMap<&str, Layer> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(&own) {
            let l = layers.entry(s.name).or_insert(Layer {
                source: s.source,
                spans: 0,
                total: 0.0,
                own: 0.0,
            });
            l.spans += 1;
            l.total += s.ms();
            l.own += own;
        }
        let mut out = String::from("{\n");
        out.push_str(header);
        out.push_str("  \"layers\": [\n");
        let rows: Vec<String> = layers
            .iter()
            .map(|(name, l)| {
                format!(
                    "    {{\"name\": \"{name}\", \"source\": \"{}\", \"spans\": {}, \"median_ms_per_request\": {:.6}, \"total_ms\": {:.6}, \"self_ms\": {:.6}}}",
                    l.source.label(),
                    l.spans,
                    median_or_zero(self.per_request_ms(name)),
                    l.total,
                    l.own
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ],\n  \"counters\": {");
        let counters: Vec<String> =
            self.counters.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
        out.push_str(&counters.join(", "));
        out.push_str("},\n  \"requests\": [\n");
        let requests: Vec<String> = self
            .templates
            .iter()
            .map(|(id, template)| {
                format!("    {{\"request\": {id}, \"template\": \"{template}\"}}")
            })
            .collect();
        out.push_str(&requests.join(",\n"));
        out.push_str("\n  ],\n  \"spans\": [\n");
        let spans: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let request =
                    if s.request == SETUP { "\"setup\"".to_string() } else { s.request.to_string() };
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "    {{\"request\": {request}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"source\": \"{}\"}}",
                    s.name,
                    s.start_ns,
                    s.end_ns,
                    s.source.label()
                )
            })
            .collect();
        out.push_str(&spans.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

impl Probe for Recorder {
    const ON: bool = true;

    fn request(&mut self, id: u32, template: &str) {
        self.request = id;
        if id != SETUP {
            self.templates.push((id, template.to_string()));
        }
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.push(name, self.open.last().copied(), Source::Measured);
        self.open.push(id);
        id
    }

    fn end(&mut self, span: usize) {
        let now = self.now();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == span {
                break;
            }
        }
    }

    fn rename(&mut self, span: usize, name: &'static str) {
        self.spans[span].name = name;
    }

    fn reported(
        &mut self,
        parent: usize,
        name: &'static str,
        offset: Duration,
        length: Duration,
    ) -> usize {
        let id = self.push(name, Some(parent), Source::Reported);
        let start = self.spans[parent].start_ns + offset.as_nanos() as u64;
        self.spans[id].start_ns = start;
        self.spans[id].end_ns = start + length.as_nanos() as u64;
        id
    }

    fn replay(&mut self, parent: usize, name: &'static str) -> usize {
        let id = self.push(name, Some(parent), Source::Replayed);
        self.open.push(id);
        id
    }

    fn count(&mut self, name: &'static str, by: u64) {
        *self.counters.entry(name).or_default() += by;
    }

    fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_subtracts_children() {
        let mut r = Recorder::new();
        r.request(0, "t");
        let root = r.begin("publish");
        let a = r.begin("a");
        r.end(a);
        let b = r.begin("b");
        let c = r.reported(b, "b.inner", Duration::ZERO, Duration::from_nanos(10));
        r.end(b);
        r.end(root);
        assert_eq!(r.spans[a].parent, Some(root));
        assert_eq!(r.spans[c].parent, Some(b));
        assert_eq!(r.spans[c].end_ns - r.spans[c].start_ns, 10);
        // Fix the intervals so the arithmetic is exact.
        for (i, (s, e)) in [(0, 1000), (0, 400), (400, 900), (400, 410)].iter().enumerate() {
            r.spans[i].start_ns = *s;
            r.spans[i].end_ns = *e;
        }
        let own = r.self_ms();
        assert!((own[root] - 100e-6).abs() < 1e-12);
        assert!((own[b] - 490e-6).abs() < 1e-12);
        assert!((r.coverage("publish") - 0.9).abs() < 1e-12);
    }

    #[test]
    fn ending_an_outer_span_closes_what_is_open_inside() {
        let mut r = Recorder::new();
        let root = r.begin("publish");
        let _dangling = r.begin("inner");
        r.end(root);
        assert!(r.open.is_empty());
        let next = r.begin("publish");
        assert_eq!(r.spans[next].parent, None);
    }

    #[test]
    fn per_request_totals_sum_repeated_spans() {
        let mut r = Recorder::new();
        for request in 0..3 {
            r.request(request, "t");
            for _ in 0..2 {
                let s = r.begin("x");
                r.end(s);
                let last = r.spans.len() - 1;
                r.spans[last].start_ns = 0;
                r.spans[last].end_ns = 1_000_000 * u64::from(request + 1);
            }
        }
        r.request(SETUP, "");
        let s = r.begin("x");
        r.end(s);
        assert_eq!(r.per_request_ms("x"), vec![2.0, 4.0, 6.0]);
        assert_eq!(r.span_ms("x").len(), 7);
        assert!(r.per_request_ms("absent").is_empty());
    }
}
