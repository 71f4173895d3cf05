//! Harness-side spans around the calls into each layer. Spans are held in
//! memory while the traced run executes and written out once, afterwards;
//! a layer's self time is its span minus the time its child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. `parent` is an index into the recorder's span list.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Single-threaded span recorder: the traced replay runs every stage on
/// the calling thread, so children of one span never overlap.
pub struct Recorder {
    workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span named `name`, child of whichever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
        });
        self.open.push(id);
        self.spans[id].start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(self);
        self.spans[id].end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        out
    }

    /// Total duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .sum()
    }

    /// Self time of every span called `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        self_times(&self.spans)
            .iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(t, _)| t)
            .sum()
    }

    /// Sum of the self times of the direct children of the span `name`.
    pub fn children_self_ns(&self, name: &str) -> u64 {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.parent.is_some_and(|p| self.spans[p].name == name))
            .map(|(i, _)| selfs[i])
            .sum()
    }

    /// One JSON object per span, in start order.
    pub fn to_ndjson(&self) -> String {
        let selfs = self_times(&self.spans);
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"workload\":\"{}\",\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                self.workload, s.name, s.start_ns, s.end_ns, selfs[id]
            );
        }
        out
    }
}

/// Self time per span, parallel to `spans`: duration minus the durations
/// of its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p].saturating_sub(s.dur_ns());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("root", None, 0, 1000),
            span("a", Some(0), 100, 400),  // sibling 1
            span("a1", Some(1), 150, 250), // nested under a
            span("b", Some(0), 500, 900),  // sibling 2
        ];
        // root: 1000 − (300 + 400); a: 300 − 100; leaves keep their own.
        assert_eq!(self_times(&spans), vec![300, 200, 100, 400]);
        // Self times partition the root interval.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 1000);
    }

    #[test]
    fn recorder_nests_by_call_structure() {
        let mut rec = Recorder::new("w");
        rec.span("root", |r| {
            r.span("stage", |r| r.span("inner", |_| ()));
            r.span("stage", |_| ());
        });
        let parents: Vec<_> = rec.spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![
                ("root", None),
                ("stage", Some(0)),
                ("inner", Some(1)),
                ("stage", Some(0)),
            ]
        );
        assert!(rec.spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(
            rec.children_self_ns("root"),
            rec.self_ns("stage"),
            "only direct children count"
        );
        assert_eq!(
            rec.total_ns("root"),
            rec.self_ns("root") + rec.self_ns("stage") + rec.self_ns("inner")
        );
        assert_eq!(rec.to_ndjson().lines().count(), 4);
        assert!(rec
            .to_ndjson()
            .starts_with("{\"workload\":\"w\",\"id\":0,\"parent\":null,\"name\":\"root\""));
    }
}
