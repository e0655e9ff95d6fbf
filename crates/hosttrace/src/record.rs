//! The host instruction stream: record types and sinks.

use crate::registry::FunctionId;

/// One host *function invocation* with its block-level character.
///
/// The host microarchitecture model expands this into instruction-cache
/// line touches (from the function's code address/size in the
/// [`Registry`](crate::registry::Registry)), decode traffic, branch events
/// and local data accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecRecord {
    /// Which function ran.
    pub func: FunctionId,
    /// Host µops executed in this invocation.
    pub uops: u16,
    /// Conditional branches executed.
    pub cond_branches: u8,
    /// Indirect calls/jumps (virtual dispatch, function-pointer calls).
    pub indirect_branches: u8,
    /// Loads to function-local data (stack, locals).
    pub loads: u8,
    /// Stores to function-local data.
    pub stores: u8,
    /// Per-function invocation counter; drives deterministic branch
    /// outcome and target streams.
    pub variant: u32,
}

/// A host data reference into simulator state (tag arrays, ROB entries,
/// packet objects…).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataRef {
    /// Host virtual address.
    pub addr: u64,
    /// Bytes touched.
    pub bytes: u32,
    /// Whether the touch writes.
    pub write: bool,
}

/// Consumer of the host instruction stream.
pub trait TraceSink {
    /// A function invocation.
    fn exec(&mut self, rec: ExecRecord);
    /// A simulator-state data touch.
    fn data(&mut self, dref: DataRef);
}

/// Discards everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn exec(&mut self, _rec: ExecRecord) {}
    fn data(&mut self, _dref: DataRef) {}
}

/// Fans one stream out to several sinks, event by event. The profiling
/// pipeline uses [`feed`] instead, which does the same a chunk at a time.
#[derive(Debug, Default)]
pub struct FanoutSink<S> {
    /// The downstream sinks.
    pub sinks: Vec<S>,
}

impl<S> FanoutSink<S> {
    /// Wraps the given sinks.
    pub fn new(sinks: Vec<S>) -> Self {
        FanoutSink { sinks }
    }

    /// Unwraps the sinks.
    pub fn into_inner(self) -> Vec<S> {
        self.sinks
    }
}

impl<S: TraceSink> TraceSink for FanoutSink<S> {
    fn exec(&mut self, rec: ExecRecord) {
        for s in &mut self.sinks {
            s.exec(rec);
        }
    }
    fn data(&mut self, dref: DataRef) {
        for s in &mut self.sinks {
            s.data(dref);
        }
    }
}

/// One event of the post-adapter host stream, in order. The unit of
/// guest-trace memoization: a recorded `Vec<TraceEvent>` replays into any
/// number of host engines without re-running the guest simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A function invocation.
    Exec(ExecRecord),
    /// A simulator-state data touch.
    Data(DataRef),
}

/// Events [`feed`] hands each sink at a time: 65,536 events, 1.5 MiB.
const CHUNK_EVENTS: usize = 1 << 16;

/// Records the stream, up to a cap, while passing it on to downstream
/// sinks one [`feed`] chunk at a time; [`finish`](Self::finish) feeds the
/// last, partial chunk. Past `cap` events the recording is dropped and
/// only the current chunk is held, so memory stays bounded by `cap` plus
/// one chunk: a long guest simulation is simply not cached.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink<S = NullSink> {
    events: Vec<TraceEvent>,
    /// `events[..fed]` has already gone downstream.
    fed: usize,
    cap: usize,
    overflowed: bool,
    sinks: Vec<S>,
    /// Threads [`feed`] may spread `sinks` over.
    workers: usize,
}

impl RecordingSink {
    /// A recorder of at most `cap` events with no downstream sinks.
    pub fn with_cap(cap: usize) -> Self {
        Self::with_sinks(cap, Vec::new(), 1)
    }
}

impl<S: TraceSink + Send> RecordingSink<S> {
    /// A recorder that keeps at most `cap` events and feeds the whole
    /// stream to `sinks`, spread over up to `workers` threads.
    pub fn with_sinks(cap: usize, sinks: Vec<S>, workers: usize) -> Self {
        RecordingSink {
            events: Vec::new(),
            fed: 0,
            cap,
            overflowed: false,
            sinks,
            workers,
        }
    }

    /// Feeds the last chunk downstream and returns the complete recorded
    /// stream — `None` if it exceeded the cap — and the downstream sinks.
    pub fn finish(mut self) -> (Option<Vec<TraceEvent>>, Vec<S>) {
        self.flush();
        ((!self.overflowed).then_some(self.events), self.sinks)
    }

    /// The complete recorded stream, or `None` if it exceeded the cap.
    pub fn into_events(self) -> Option<Vec<TraceEvent>> {
        self.finish().0
    }

    fn flush(&mut self) {
        feed(&self.events[self.fed..], &mut self.sinks, self.workers);
        if self.overflowed || self.events.len() > self.cap {
            self.overflowed = true;
            self.events.clear();
            self.events.shrink_to(CHUNK_EVENTS);
        }
        self.fed = self.events.len();
    }

    fn push(&mut self, ev: TraceEvent) {
        self.events.push(ev);
        if self.events.len() - self.fed == CHUNK_EVENTS {
            self.flush();
        }
    }
}

impl<S: TraceSink + Send> TraceSink for RecordingSink<S> {
    fn exec(&mut self, rec: ExecRecord) {
        self.push(TraceEvent::Exec(rec));
    }
    fn data(&mut self, dref: DataRef) {
        self.push(TraceEvent::Data(dref));
    }
}

/// Replays a recorded stream into a sink, exactly as it was emitted.
pub fn replay<S: TraceSink>(events: &[TraceEvent], sink: &mut S) {
    for &ev in events {
        match ev {
            TraceEvent::Exec(rec) => sink.exec(rec),
            TraceEvent::Data(dref) => sink.data(dref),
        }
    }
}

/// Hands `events` to every sink one 65,536-event chunk at a time, each
/// chunk in a `host_engines` span. Within a chunk the sinks are split into
/// `min(workers, sinks)` contiguous groups: the calling thread replays the
/// first group and scoped threads replay the rest, sink by sink (one group
/// spawns nothing). Each sink is on one thread per chunk and the chunks go
/// in order, so each sees exactly the stream [`replay`] gives it, whatever
/// `workers` is.
pub fn feed<S: TraceSink + Send>(events: &[TraceEvent], sinks: &mut [S], workers: usize) {
    if sinks.is_empty() {
        return;
    }
    let groups = workers.clamp(1, sinks.len());
    for chunk in events.chunks(CHUNK_EVENTS) {
        let _span = gem5prof_obs::span("host_engines");
        let replay_all = |group: &mut [S]| group.iter_mut().for_each(|s| replay(chunk, s));
        // Even split, as `runner::parallel_map` does: group g owns
        // sinks[g*n/groups .. (g+1)*n/groups].
        let n = sinks.len();
        let (first, mut rest) = sinks.split_at_mut(n / groups);
        std::thread::scope(|scope| {
            for g in 1..groups {
                let len = (g + 1) * n / groups - g * n / groups;
                let (group, tail) = std::mem::take(&mut rest).split_at_mut(len);
                rest = tail;
                scope.spawn(move || replay_all(group));
            }
            replay_all(first);
        });
    }
}

/// Counts records (tests and sanity checks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// exec records seen.
    pub execs: u64,
    /// data records seen.
    pub datas: u64,
    /// total µops seen.
    pub uops: u64,
}

impl TraceSink for CountingSink {
    fn exec(&mut self, rec: ExecRecord) {
        self.execs += 1;
        self.uops += rec.uops as u64;
    }
    fn data(&mut self, _dref: DataRef) {
        self.datas += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(uops: u16) -> ExecRecord {
        ExecRecord {
            func: FunctionId(0),
            uops,
            cond_branches: 2,
            indirect_branches: 1,
            loads: 3,
            stores: 1,
            variant: 0,
        }
    }

    #[test]
    fn fanout_duplicates_stream() {
        let mut f = FanoutSink::new(vec![CountingSink::default(); 3]);
        f.exec(rec(10));
        f.data(DataRef {
            addr: 0x1000,
            bytes: 64,
            write: false,
        });
        for s in f.into_inner() {
            assert_eq!(s.execs, 1);
            assert_eq!(s.datas, 1);
            assert_eq!(s.uops, 10);
        }
    }

    #[test]
    fn recording_then_replay_reproduces_the_stream() {
        let mut r = RecordingSink::with_cap(100);
        r.exec(rec(10));
        r.data(DataRef {
            addr: 0x2000,
            bytes: 8,
            write: true,
        });
        r.exec(rec(20));
        let events = r.into_events().expect("under cap");
        assert_eq!(events.len(), 3);
        let mut c = CountingSink::default();
        replay(&events, &mut c);
        assert_eq!((c.execs, c.datas, c.uops), (2, 1, 30));
    }

    #[test]
    fn recorder_overflow_discards_instead_of_growing() {
        for (len, kept) in [(2, true), (3, false)] {
            let mut r = RecordingSink::with_cap(2);
            for _ in 0..len {
                r.exec(rec(1));
            }
            assert_eq!(r.into_events().is_some(), kept, "{len} events");
        }
    }

    /// Three full chunks plus a partial one, every event distinct.
    fn chunked_stream() -> Vec<TraceEvent> {
        (0..3 * CHUNK_EVENTS as u32 + 17)
            .map(|i| match i % 5 {
                0 => TraceEvent::Data(DataRef {
                    addr: u64::from(i) * 64,
                    bytes: 8,
                    write: i % 2 == 0,
                }),
                _ => TraceEvent::Exec(ExecRecord {
                    variant: i,
                    ..rec(1)
                }),
            })
            .collect()
    }

    #[test]
    fn over_cap_recorder_streams_everything_downstream_in_bounded_memory() {
        let input = chunked_stream();
        let cap = CHUNK_EVENTS + 100;
        let downstream = vec![RecordingSink::with_cap(usize::MAX); 2];
        let mut r = RecordingSink::with_sinks(cap, downstream, 1);
        for ev in input.chunks(1) {
            replay(ev, &mut r);
            assert!(
                r.events.len() <= cap + CHUNK_EVENTS,
                "recorder grew past the bound"
            );
        }
        let (recording, sinks) = r.finish();
        assert!(
            recording.is_none(),
            "an over-cap stream must not be recorded"
        );
        for s in sinks {
            assert_eq!(s.into_events().expect("uncapped"), input);
        }
    }

    #[test]
    fn fanned_out_sinks_each_see_the_whole_stream_in_order() {
        let input = chunked_stream();
        for workers in [1, 2, 3, 8] {
            for n in [1, 2, 7] {
                let fresh = vec![RecordingSink::with_cap(usize::MAX); n];
                let mut sinks = fresh.clone();
                feed(&input, &mut sinks, workers);
                let mut r = RecordingSink::with_sinks(usize::MAX, fresh, workers);
                replay(&input, &mut r);
                let (recording, through_recorder) = r.finish();
                assert_eq!(recording.as_ref(), Some(&input));
                for (i, s) in sinks.into_iter().chain(through_recorder).enumerate() {
                    assert_eq!(
                        s.into_events().expect("uncapped"),
                        input,
                        "sink {i} of {n} at {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn null_sink_ignores() {
        let mut n = NullSink;
        n.exec(rec(5));
        n.data(DataRef {
            addr: 0,
            bytes: 1,
            write: true,
        });
    }
}
