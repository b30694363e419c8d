//! Spans recorded by the traced run at each boundary the benchmark crosses:
//! a system op, a probe batch, a counter read.
//!
//! Each thread records into its own [`SpanBuf`], preallocated before it
//! starts measuring; a full buffer drops further spans and counts them.
//! The buffers are handed to a [`Tracer`] and written out as JSON lines
//! when the run ends.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
// The trace collector is benchmark plumbing, touched once per thread.
#[allow(clippy::disallowed_types)]
use std::sync::Mutex;

use crate::clock::Clock;

/// Spans kept per worker thread per traced window.
pub const WINDOW_SPANS: usize = 512;

/// Global span id: thread index in the high 32 bits, buffer slot below.
pub type SpanId = u64;

/// Marks a root span.
pub const NO_PARENT: SpanId = u64::MAX;

pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    pub request: u64,
    pub start: u64,
    pub end: u64,
}

pub struct SpanBuf {
    thread: u32,
    spans: Vec<Span>,
    dropped: u64,
}

impl SpanBuf {
    fn id(&self, slot: usize) -> SpanId {
        (u64::from(self.thread) << 32) | slot as u64
    }

    /// Records a finished span; returns its id, or [`NO_PARENT`] if the
    /// buffer is full.
    #[inline]
    pub fn record(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: u64,
        end: u64,
    ) -> SpanId {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            parent,
            request,
            start,
            end,
        });
        self.id(self.spans.len() - 1)
    }

    /// Opens a span whose end is set later with [`SpanBuf::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u64, start: u64) -> SpanId {
        self.record(name, parent, request, start, start)
    }

    pub fn close(&mut self, id: SpanId, end: u64) {
        if id != NO_PARENT {
            self.spans[(id & u64::from(u32::MAX)) as usize].end = end;
        }
    }
}

#[allow(clippy::disallowed_types)]
#[derive(Default)]
pub struct Tracer {
    next_thread: AtomicU32,
    done: Mutex<Vec<SpanBuf>>,
}

impl Tracer {
    /// A buffer for one thread, preallocated for `capacity` spans.
    pub fn buffer(&self, capacity: usize) -> SpanBuf {
        SpanBuf {
            thread: self.next_thread.fetch_add(1, Ordering::Relaxed),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    pub fn submit(&self, buf: SpanBuf) {
        self.done.lock().expect("tracer poisoned").push(buf);
    }

    /// Writes every submitted span to `path` as one JSON object per line.
    /// Returns (spans written, spans dropped).
    pub fn write(&self, path: &Path, clock: &Clock) -> std::io::Result<(u64, u64)> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let bufs = self.done.lock().expect("tracer poisoned");
        let mut out = String::new();
        let (mut written, mut dropped) = (0, 0);
        for buf in bufs.iter() {
            dropped += buf.dropped;
            for (slot, s) in buf.spans.iter().enumerate() {
                written += 1;
                let parent = if s.parent == NO_PARENT {
                    "null".to_string()
                } else {
                    s.parent.to_string()
                };
                let _ = writeln!(
                    out,
                    "{{\"id\":{},\"parent\":{},\"thread\":{},\"name\":\"{}\",\"request\":{},\
                     \"start_ns\":{:.1},\"end_ns\":{:.1}}}",
                    buf.id(slot),
                    parent,
                    buf.thread,
                    s.name,
                    s.request,
                    clock.since_start_ns(s.start),
                    clock.since_start_ns(s.end),
                );
            }
        }
        std::fs::write(path, out)?;
        Ok((written, dropped))
    }
}
