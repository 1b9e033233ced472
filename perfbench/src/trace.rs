//! In-memory spans recorded around the benchmark's own calls into the
//! simulator (set-up, engine run, read-out and its sub-steps).

use std::fmt::Write as _;
use std::time::Instant;

/// One timed interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// What ran (`rep`, `cell:<id>`, `setup`, `simulate`, `readout`, …).
    pub name: String,
    /// Repetition the span belongs to.
    pub run: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created (0 while open).
    pub end_ns: u64,
}

/// A stack of open spans plus every span closed so far.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u32,
}

impl Tracer {
    /// An empty tracer; times are relative to now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Starts repetition `run`: spans opened from now on carry its id.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Number of open spans.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// Closes open spans until `depth` remain (after a cell panicked).
    pub fn unwind_to(&mut self, depth: usize) {
        while self.open.len() > depth {
            self.close();
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: impl Into<String>) {
        let span = Span {
            name: name.into(),
            run: self.run,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        };
        self.open.push(self.spans.len());
        self.spans.push(span);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let i = self.open.pop().expect("a span is open");
        self.spans[i].end_ns = self.now_ns();
    }

    /// Records a closed child of the innermost open span that started
    /// where its previous child ended (or where the parent started).
    pub fn step(&mut self, name: &str) {
        let parent = *self.open.last().expect("a span is open");
        let start_ns = self.spans[parent + 1..]
            .iter()
            .rev()
            .find(|s| s.parent == Some(parent))
            .map_or(self.spans[parent].start_ns, |s| s.end_ns);
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            run: self.run,
            parent: Some(parent),
            start_ns,
            end_ns,
        });
    }

    /// Seconds spent in spans called `name` during repetition `run`,
    /// optionally only those whose parent is called `parent`.
    pub fn seconds(&self, run: u32, name: &str, parent: Option<&str>) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.run == run && s.name == name)
            .filter(|s| parent.is_none_or(|p| s.parent.is_some_and(|i| self.spans[i].name == p)))
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"run\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.run, s.start_ns, s.end_ns
            );
        }
        out
    }
}
