//! Harness-side spans around the calls into each layer.
//!
//! Spans are recorded from outside the program (the benchmark times its
//! own calls into public functions), kept in memory, and written out as
//! a Chrome trace when the run ends. Tracing is only ever on in the
//! staged run; the end-to-end metrics are measured without it.

use std::time::Instant;

/// One recorded span. `parent` indexes into the same recorder.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// The statement (one `execute` call's worth of work) it belongs to.
    pub stmt: u64,
    pub parent: Option<usize>,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span store with a stack of open spans, so the span that
/// caused a new one is whichever is open when it starts.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    stmt: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            stmt: 0,
        }
    }

    /// Start the next statement; spans opened from now on carry its id.
    pub fn next_statement(&mut self) -> u64 {
        self.stmt += 1;
        self.stmt
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len();
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            name: name.to_string(),
            stmt: self.stmt,
            parent: self.open.last().copied(),
            start_us,
            end_us: start_us,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part of it its child spans cover.
    pub fn self_time_us(&self, idx: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::dur_us)
            .sum();
        (self.spans[idx].dur_us() - children).max(0.0)
    }

    /// Total self time per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(String, f64)> {
        let mut out: Vec<(String, f64)> = Vec::new();
        for (idx, span) in self.spans.iter().enumerate() {
            let t = self.self_time_us(idx);
            match out.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, total)) => *total += t,
                None => out.push((span.name.clone(), t)),
            }
        }
        out
    }

    /// Total duration of all spans called `name`.
    pub fn total_us(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_us)
            .sum()
    }

    /// The trace in Chrome's Trace Event Format (JSON-object form, `X`
    /// complete events, one track): loads in Perfetto and
    /// `chrome://tracing`. Nesting is by time containment; the parent
    /// index and statement id ride along in `args`.
    pub fn chrome_trace(&self, track: &str) -> String {
        let mut events = vec![format!(
            r#"{{"ph":"M","pid":1,"tid":1,"name":"thread_name","args":{{"name":{}}}}}"#,
            json_string(track)
        )];
        for (idx, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            events.push(format!(
                r#"{{"ph":"X","pid":1,"tid":1,"ts":{:.3},"dur":{:.3},"cat":"harness","name":{},"args":{{"id":{idx},"parent":{parent},"stmt":{}}}}}"#,
                s.start_us,
                s.dur_us(),
                json_string(&s.name),
                s.stmt
            ));
        }
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",\n")
        )
    }
}

/// A JSON string literal for `s`.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with hand-set times: parent 0..100, children 10..30 and
    /// 40..90, grandchild 50..60 under the second child.
    fn fixture() -> Recorder {
        let mut r = Recorder::new();
        r.next_statement();
        let mk = |name: &str, parent, start_us, end_us| Span {
            name: name.to_string(),
            stmt: 1,
            parent,
            start_us,
            end_us,
        };
        r.spans = vec![
            mk("statement", None, 0.0, 100.0),
            mk("parse", Some(0), 10.0, 30.0),
            mk("stage", Some(0), 40.0, 90.0),
            mk("parse", Some(2), 50.0, 60.0),
        ];
        r
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let r = fixture();
        assert_eq!(r.self_time_us(0), 30.0); // 100 - 20 - 50
        assert_eq!(r.self_time_us(1), 20.0);
        assert_eq!(r.self_time_us(2), 40.0); // 50 - 10
        assert_eq!(r.self_time_us(3), 10.0);
        // Self times partition the root's duration.
        let total: f64 = (0..4).map(|i| r.self_time_us(i)).sum();
        assert_eq!(total, 100.0);
        assert_eq!(
            r.self_time_by_name(),
            vec![
                ("statement".to_string(), 30.0),
                ("parse".to_string(), 30.0),
                ("stage".to_string(), 40.0)
            ]
        );
        assert_eq!(r.total_us("parse"), 30.0);
    }

    #[test]
    fn spans_nest_under_the_open_span() {
        let mut r = Recorder::new();
        let stmt = r.next_statement();
        let got = r.span("outer", |r| {
            r.span("inner", |_| ());
            r.span("inner", |_| 7)
        });
        assert_eq!(got, 7);
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.stmt == stmt));
        assert!(spans[0].start_us <= spans[1].start_us && spans[2].end_us <= spans[0].end_us);
    }

    #[test]
    fn chrome_trace_passes_the_repo_validator() {
        let trace = fixture().chrome_trace("staged \"q1\"");
        hdm_obs::chrome::validate_chrome_trace(&trace).unwrap();
        assert!(trace.contains(r#""parent":2"#));
    }
}
