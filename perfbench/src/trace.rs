//! The benchmark's own spans: one around each HTTP call and each
//! in-process layer call. Spans stay in memory and are written out once,
//! when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: usize = usize::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span, or [`ROOT`].
    pub parent: usize,
    /// Request id (an index into the tracer's id table): the request
    /// path or canonical spec key. Interned, since a hot window records
    /// a million spans over a handful of ids.
    pub id: u32,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    ids: Vec<String>,
    id_index: HashMap<String, u32>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            ids: Vec::new(),
            id_index: HashMap::new(),
        }
    }

    fn intern(&mut self, id: &str) -> u32 {
        if let Some(&i) = self.id_index.get(id) {
            return i;
        }
        let i = self.ids.len() as u32;
        self.ids.push(id.to_string());
        self.id_index.insert(id.to_string(), i);
        i
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: usize, id: &str) -> usize {
        let id = self.intern(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Closes span `i` and returns its duration in seconds.
    pub fn close(&mut self, i: usize) -> f64 {
        let end = self.now_ns();
        let s = &mut self.spans[i];
        s.end_ns = end;
        s.seconds()
    }

    /// Records an already-timed span (an HTTP call timed by the load
    /// generator).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        id: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let id = self.intern(id);
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by its children (overlapping children counted
    /// once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent != ROOT {
                children[s.parent].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(s, kids)| {
                let mut iv: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let c = &self.spans[k];
                        (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                    })
                    .filter(|(a, b)| a < b)
                    .collect();
                iv.sort_unstable();
                let (mut covered, mut reach) = (0u64, 0u64);
                for (a, b) in iv {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.end_ns - s.start_ns - covered
            })
            .collect()
    }

    /// Total and self seconds per span name, in first-seen order.
    pub fn by_name(&self) -> Vec<(&'static str, usize, f64, f64)> {
        let selfs = self.self_ns();
        let mut out: Vec<(&'static str, usize, f64, f64)> = Vec::new();
        for (s, own) in self.spans.iter().zip(selfs) {
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += s.seconds();
                    e.3 += own as f64 / 1e9;
                }
                None => out.push((s.name, 1, s.seconds(), own as f64 / 1e9)),
            }
        }
        out
    }

    /// The spans as tab-separated text: the id table (`#id` lines), a
    /// header, then one row per span with its self time.
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        for (i, id) in self.ids.iter().enumerate() {
            let _ = writeln!(out, "#id\t{i}\t{id}");
        }
        out.push_str("span\tparent\tname\tid\tstart_ns\tend_ns\tself_ns\n");
        for (i, (s, own)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.name, s.id, s.start_ns, s.end_ns, own
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_child_intervals_once() {
        let mut t = Tracer::new(Instant::now());
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        };
        t.spans.push(span("root", 0, 100, ROOT));
        t.spans.push(span("a", 10, 40, 0));
        t.spans.push(span("b", 30, 60, 0)); // overlaps a: 10..60 covered
        t.spans.push(span("c", 90, 120, 0)); // clipped to the parent: 90..100
        assert_eq!(t.self_ns(), vec![40, 30, 30, 30]);
    }
}
