//! Env-gated Chrome trace-event tracing.
//!
//! Spans are RAII guards created with [`span`] (or [`span_with`] when a
//! dynamic label is worth the `format!` — the closure only runs while
//! tracing is on). Each guard records one *complete* (`ph:"X"`) Chrome
//! trace event when dropped; [`instant`] records a point-in-time event.
//! Nesting is tracked per thread with a thread-local span stack, so every
//! event also carries its stack depth and Perfetto reconstructs the flame
//! chart from timestamps alone.
//!
//! Output is one JSON object per line. The file opens with a bare `[` and
//! every event line ends with a comma — the Chrome trace-event JSON array
//! format explicitly permits an unclosed array, which is what makes
//! append-only crash-safe tracing possible. [`crate::check::validate_trace`]
//! understands the same framing.
//!
//! When `WLCRC_TRACE` is unset the entire module collapses to one relaxed
//! atomic load per call site and **zero allocations** (pinned by the
//! repo-level `obs_overhead` test).

use std::cell::RefCell;
use std::fs::File;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, Once, OnceLock};
use std::time::Instant;

/// Environment variable naming the trace output file.
///
/// `WLCRC_TRACE=/tmp/run.jsonl` switches tracing on for the whole
/// process; unset (or empty) leaves it off.
pub const TRACE_ENV: &str = "WLCRC_TRACE";

static INIT: Once = Once::new();
static ACTIVE: AtomicBool = AtomicBool::new(false);
static WRITER: OnceLock<Mutex<File>> = OnceLock::new();
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn init_from_env() {
    INIT.call_once(|| {
        let Ok(path) = std::env::var(TRACE_ENV) else { return };
        if path.is_empty() {
            return;
        }
        match File::create(&path) {
            Ok(mut file) => {
                // Chrome trace-event JSON array format; the array may stay
                // unclosed, so a crash mid-run still yields a loadable file.
                if file.write_all(b"[\n").is_err() {
                    return;
                }
                let _ = WRITER.set(Mutex::new(file));
                let _ = EPOCH.set(Instant::now());
                ACTIVE.store(true, Ordering::Relaxed);
            }
            Err(err) => {
                eprintln!("wlcrc-obs: cannot open {TRACE_ENV}={path:?}: {err}");
            }
        }
    });
}

/// Is tracing switched on for this process?
///
/// After the first call this is a single already-completed `Once` check
/// plus one relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    init_from_env();
    ACTIVE.load(Ordering::Relaxed)
}

fn now_us() -> f64 {
    match EPOCH.get() {
        Some(epoch) => epoch.elapsed().as_nanos() as f64 / 1000.0,
        None => 0.0,
    }
}

fn thread_id() -> u64 {
    TID.with(|tid| *tid)
}

/// RAII span guard: measures from construction to drop and emits one
/// complete (`ph:"X"`) trace event. Inert (and allocation-free) when
/// tracing is off.
#[must_use = "a span measures until it is dropped"]
pub struct Span {
    data: Option<SpanData>,
}

struct SpanData {
    name: &'static str,
    label: Option<String>,
    start_us: f64,
    depth: usize,
}

/// Open a span named `name`.
///
/// Span names are static dotted strings (`engine.cell`, `store.read`);
/// the segment before the first `.` becomes the Chrome trace *category*.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { data: None };
    }
    Span { data: Some(open_span(name, None)) }
}

/// Open a span with a dynamic label (e.g. `scheme×workload×seed`).
///
/// The label closure is only evaluated when tracing is on, so call sites
/// may `format!` freely without paying for it in production runs.
#[inline]
pub fn span_with(name: &'static str, label: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span { data: None };
    }
    Span { data: Some(open_span(name, Some(label()))) }
}

fn open_span(name: &'static str, label: Option<String>) -> SpanData {
    let depth = STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        stack.push(name);
        stack.len() - 1
    });
    SpanData { name, label, start_us: now_us(), depth }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(data) = self.data.take() else { return };
        let end_us = now_us();
        STACK.with(|stack| {
            stack.borrow_mut().pop();
        });
        let mut line = String::with_capacity(160);
        event_prefix(&mut line, data.name, "X", data.start_us);
        line.push_str(&format!(",\"dur\":{:.3}", end_us - data.start_us));
        line.push_str(&format!(",\"args\":{{\"depth\":{}", data.depth));
        if let Some(label) = data.label {
            line.push_str(",\"label\":\"");
            escape_json_into(&mut line, &label);
            line.push('"');
        }
        line.push_str("}},\n");
        write_line(&line);
    }
}

/// Emit an instant (`ph:"i"`) event — a point marker on the timeline.
#[inline]
pub fn instant(name: &'static str) {
    if !enabled() {
        return;
    }
    let mut line = String::with_capacity(120);
    event_prefix(&mut line, name, "i", now_us());
    line.push_str(",\"s\":\"t\"},\n");
    write_line(&line);
}

fn event_prefix(line: &mut String, name: &'static str, ph: &str, ts_us: f64) {
    let cat = name.split('.').next().unwrap_or(name);
    line.push_str("{\"name\":\"");
    escape_json_into(line, name);
    line.push_str("\",\"cat\":\"");
    escape_json_into(line, cat);
    line.push_str(&format!(
        "\",\"ph\":\"{ph}\",\"ts\":{ts_us:.3},\"pid\":{},\"tid\":{}",
        std::process::id(),
        thread_id()
    ));
}

fn write_line(line: &str) {
    if let Some(writer) = WRITER.get() {
        if let Ok(mut file) = writer.lock() {
            let _ = file.write_all(line.as_bytes());
        }
    }
}

/// Escape `text` as the inside of a JSON string literal, appending to `out`.
/// The workspace's one JSON string escaper: the trace writer and `perfsnap`'s
/// snapshot entries both write through it.
pub fn escape_json_into(out: &mut String, text: &str) {
    for ch in text.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escaping_covers_specials() {
        let mut out = String::new();
        escape_json_into(&mut out, "a\"b\\c\nd\te\u{1}f×");
        assert_eq!(out, "a\\\"b\\\\c\\nd\\te\\u0001f×");
    }

    #[test]
    fn spans_are_inert_when_off() {
        if std::env::var_os(TRACE_ENV).is_some() {
            return; // tracing deliberately on for this process; nothing to pin
        }
        // With WLCRC_TRACE unset the guard must be a no-op shell: no panic,
        // no stack mutation, label closure skipped.
        let span = span("test.unit");
        assert!(span.data.is_none());
        drop(span);
        let span = span_with("test.unit", || unreachable!("label must not run when off"));
        assert!(span.data.is_none());
        drop(span);
        instant("test.instant");
        STACK.with(|stack| assert!(stack.borrow().is_empty()));
    }
}
