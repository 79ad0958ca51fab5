//! In-memory span recorder, host-memory probes and the line protocol
//! `run.py` reads.
//!
//! A child process prints `READY` once its set-up is done, optional
//! `SPANS <json>` with every recorded span, and `RESULT <json>` last.
//! Spans are kept in memory and written only when the process ends.

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Debug, Clone)]
struct Span {
    id: usize,
    parent: Option<usize>,
    layer: &'static str,
    name: String,
    start_ns: u128,
    end_ns: u128,
}

/// Records spans around calls when enabled; a disabled recorder only
/// runs the closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    current: Cell<Option<usize>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            current: Cell::new(None),
        }
    }

    /// Runs `f` inside a span named `name` of `layer`; nested calls
    /// record this span as their parent.
    pub fn span<T>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.current.get(),
                layer,
                name: name.to_owned(),
                start_ns: self.origin.elapsed().as_nanos(),
                end_ns: 0,
            });
            id
        };
        let parent = self.current.replace(Some(id));
        let out = f();
        self.current.set(parent);
        self.spans.borrow_mut()[id].end_ns = self.origin.elapsed().as_nanos();
        out
    }

    /// Prints every span as one `SPANS` line (nothing when disabled).
    pub fn emit(&self) {
        if !self.enabled {
            return;
        }
        let spans = self.spans.borrow();
        let items: Vec<String> = spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
                format!(
                    "{{\"id\":{},\"parent\":{parent},\"layer\":\"{}\",\"name\":\"{}\",\
                     \"start_ns\":{},\"end_ns\":{}}}",
                    s.id, s.layer, s.name, s.start_ns, s.end_ns
                )
            })
            .collect();
        println!("SPANS [{}]", items.join(","));
    }
}

/// Announces the end of set-up. With `setup_only` the process ends
/// here: `run.py` times set-up on its own, several times per run.
pub fn ready(setup_only: bool) {
    println!("READY");
    if setup_only {
        println!("RESULT {{}}");
        std::process::exit(0);
    }
}

/// A `/proc/self/status` field in kilobytes (`VmHWM`, `VmRSS`), or 0
/// where the file does not exist.
pub fn status_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse().ok())
        })
        .unwrap_or(0)
}

/// 64-bit FNV-1a over a sequence of words: the completion digests.
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// Builds a flat JSON object from `(key, rendered value)` pairs.
#[derive(Debug, Default)]
pub struct JsonObject(String);

impl JsonObject {
    pub fn num(mut self, key: &str, value: f64) -> Self {
        let value = if value.is_finite() { value } else { 0.0 };
        self.push(key, &format!("{value:?}"));
        self
    }

    pub fn int(mut self, key: &str, value: u64) -> Self {
        self.push(key, &value.to_string());
        self
    }

    pub fn text(mut self, key: &str, value: &str) -> Self {
        let escaped = value.replace('\\', "\\\\").replace('"', "\\\"");
        self.push(key, &format!("\"{escaped}\""));
        self
    }

    pub fn raw(mut self, key: &str, json: &str) -> Self {
        self.push(key, json);
        self
    }

    fn push(&mut self, key: &str, value: &str) {
        if !self.0.is_empty() {
            self.0.push(',');
        }
        let _ = write!(self.0, "\"{key}\":{value}");
    }

    pub fn render(&self) -> String {
        format!("{{{}}}", self.0)
    }
}
