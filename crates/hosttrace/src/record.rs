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

/// Fans one stream out to several sinks, event by event.
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

/// One event of the post-adapter host stream, in order. Recorded streams
/// are held encoded, as a [`Stream`], and replay into any number of host
/// engines without re-running the guest simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A function invocation.
    Exec(ExecRecord),
    /// A simulator-state data touch.
    Data(DataRef),
}

/// Events [`feed`] hands each sink at a time: 65,536 events, 1.5 MiB.
const CHUNK_EVENTS: usize = 1 << 16;

/// A recorded host stream, encoded at about 3 bytes per event instead of
/// a 24-byte [`TraceEvent`]; the unit of guest-trace memoization.
///
/// The adapter's `variant` is each function's call count, and a
/// function's shape (µop, branch, load and store counts) rarely changes
/// from one call to the next. So the encoding keeps per-function state:
/// an exec record whose variant is its function's running count and
/// whose shape is that function's previous one costs only the function
/// id and two flags, and a data reference costs its byte count and the
/// zigzagged delta from the previous reference's address. Anything else
/// is written out explicitly, so every event sequence round-trips
/// exactly. Events are LEB128 varints:
///
/// * exec: `func << 3 | shape? << 2 | variant? << 1`, then the variant
///   if flagged, then the shape (`uops` as a varint, then the branch,
///   load and store bytes) if flagged;
/// * data: `bytes << 2 | write << 1 | 1`, then the zigzagged delta.
#[derive(Clone, Default)]
pub struct Stream {
    bytes: Vec<u8>,
    len: usize,
}

impl std::fmt::Debug for Stream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Stream")
            .field("len", &self.len)
            .field("bytes", &self.bytes.len())
            .finish()
    }
}

impl Stream {
    /// Events in the stream.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the stream holds no event.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes the encoding occupies.
    pub fn byte_len(&self) -> usize {
        self.bytes.len()
    }

    /// The events, decoded in order.
    fn iter(&self) -> Events<'_> {
        Events {
            bytes: &self.bytes,
            left: self.len,
            codec: Codec::default(),
        }
    }

    /// Feeds the stream to `sink` as [`feed`] feeds a slice: one
    /// 65,536-event chunk at a time, each decoded and replayed in a
    /// `host_engines` span.
    pub fn feed<S: TraceSink>(&self, sink: &mut S) {
        let mut events = self.iter();
        while events.len() > 0 {
            let _span = gem5prof_obs::span("host_engines");
            send(events.by_ref().take(CHUNK_EVENTS), sink);
        }
    }
}

/// Function ids the codec keeps state for; a record of a higher id is
/// always written out explicitly. Registries hold about 10⁴ functions.
const STATEFUL_FUNCS: usize = 1 << 16;

/// An exec record's shape: everything but its function and variant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Shape {
    uops: u16,
    cond_branches: u8,
    indirect_branches: u8,
    loads: u8,
    stores: u8,
}

impl Shape {
    fn of(r: &ExecRecord) -> Self {
        Shape {
            uops: r.uops,
            cond_branches: r.cond_branches,
            indirect_branches: r.indirect_branches,
            loads: r.loads,
            stores: r.stores,
        }
    }
}

/// One function's codec state: the variant its next call is expected to
/// carry and the shape of its previous call.
#[derive(Debug, Clone, Copy, Default)]
struct FuncState {
    next_variant: u32,
    shape: Shape,
}

/// The state encoder and decoder both advance, event by event, so the
/// decoder predicts exactly what the encoder left out.
#[derive(Debug, Clone, Default)]
struct Codec {
    funcs: Vec<FuncState>,
    addr: u64,
}

impl Codec {
    /// The state of function `id`, or `None` if it is kept stateless.
    fn func(&mut self, id: u32) -> Option<&mut FuncState> {
        let i = id as usize;
        if i >= STATEFUL_FUNCS {
            return None;
        }
        if i >= self.funcs.len() {
            self.funcs.resize(i + 1, FuncState::default());
        }
        Some(&mut self.funcs[i])
    }
}

const DATA: u64 = 1;
const WRITE: u64 = 1 << 1;
const VARIANT: u64 = 1 << 1;
const SHAPE: u64 = 1 << 2;

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// Builds a [`Stream`] one event at a time.
#[derive(Debug, Clone, Default)]
struct Encoder {
    stream: Stream,
    codec: Codec,
}

impl Encoder {
    fn push(&mut self, ev: TraceEvent) {
        let out = &mut self.stream.bytes;
        match ev {
            TraceEvent::Exec(r) => {
                let shape = Shape::of(&r);
                let mut head = u64::from(r.func.0) << 3;
                match self.codec.func(r.func.0) {
                    Some(st) => {
                        if r.variant != st.next_variant {
                            head |= VARIANT;
                        }
                        if shape != st.shape {
                            head |= SHAPE;
                        }
                        st.next_variant = r.variant.wrapping_add(1);
                        st.shape = shape;
                    }
                    None => head |= VARIANT | SHAPE,
                }
                put_varint(out, head);
                if head & VARIANT != 0 {
                    put_varint(out, u64::from(r.variant));
                }
                if head & SHAPE != 0 {
                    put_varint(out, u64::from(shape.uops));
                    out.extend_from_slice(&[
                        shape.cond_branches,
                        shape.indirect_branches,
                        shape.loads,
                        shape.stores,
                    ]);
                }
            }
            TraceEvent::Data(d) => {
                let write = if d.write { WRITE } else { 0 };
                put_varint(out, u64::from(d.bytes) << 2 | write | DATA);
                put_varint(out, zigzag(d.addr.wrapping_sub(self.codec.addr) as i64));
                self.codec.addr = d.addr;
            }
        }
        self.stream.len += 1;
    }

    fn finish(mut self) -> Stream {
        self.stream.bytes.shrink_to_fit();
        self.stream
    }
}

/// The events of a [`Stream`], decoded in order.
#[derive(Debug)]
struct Events<'a> {
    bytes: &'a [u8],
    left: usize,
    codec: Codec,
}

impl Events<'_> {
    fn byte(&mut self) -> u8 {
        let (&b, rest) = self.bytes.split_first().expect("truncated stream");
        self.bytes = rest;
        b
    }

    fn varint(&mut self) -> u64 {
        let mut v = 0;
        let mut shift = 0;
        loop {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn shape(&mut self) -> Shape {
        Shape {
            uops: self.varint() as u16,
            cond_branches: self.byte(),
            indirect_branches: self.byte(),
            loads: self.byte(),
            stores: self.byte(),
        }
    }
}

impl Iterator for Events<'_> {
    type Item = TraceEvent;

    fn next(&mut self) -> Option<TraceEvent> {
        self.left = self.left.checked_sub(1)?;
        let head = self.varint();
        if head & DATA != 0 {
            let step = unzigzag(self.varint());
            let addr = self.codec.addr.wrapping_add(step as u64);
            self.codec.addr = addr;
            return Some(TraceEvent::Data(DataRef {
                addr,
                bytes: (head >> 2) as u32,
                write: head & WRITE != 0,
            }));
        }
        let func = (head >> 3) as u32;
        let variant = (head & VARIANT != 0).then(|| self.varint() as u32);
        let shape = (head & SHAPE != 0).then(|| self.shape());
        let (variant, shape) = match self.codec.func(func) {
            Some(st) => {
                let variant = variant.unwrap_or(st.next_variant);
                let shape = shape.unwrap_or(st.shape);
                st.next_variant = variant.wrapping_add(1);
                st.shape = shape;
                (variant, shape)
            }
            None => (
                variant.expect("a stateless record carries its variant"),
                shape.expect("a stateless record carries its shape"),
            ),
        };
        Some(TraceEvent::Exec(ExecRecord {
            func: FunctionId(func),
            uops: shape.uops,
            cond_branches: shape.cond_branches,
            indirect_branches: shape.indirect_branches,
            loads: shape.loads,
            stores: shape.stores,
            variant,
        }))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Events<'_> {}

/// Records the stream as a [`Stream`], up to a cap, while passing it on
/// to a downstream sink one [`feed`] chunk at a time;
/// [`finish`](Self::finish) feeds the last, partial chunk. It holds one
/// reusable chunk of events and the encoding. Past `cap` events the
/// encoding is dropped, so memory stays bounded by `cap` encoded events
/// plus one chunk: a long guest simulation is simply not cached.
#[derive(Debug, Clone)]
pub struct RecordingSink<S = NullSink> {
    /// Events not yet encoded nor fed downstream.
    chunk: Vec<TraceEvent>,
    /// The events already fed, or `None` once they passed `cap`.
    recording: Option<Encoder>,
    cap: usize,
    sink: S,
}

impl RecordingSink {
    /// A recorder of at most `cap` events with nothing downstream.
    pub fn with_cap(cap: usize) -> Self {
        Self::with_sink(cap, NullSink)
    }
}

impl<S: TraceSink> RecordingSink<S> {
    /// A recorder that keeps at most `cap` events and feeds the whole
    /// stream to `sink` (several sinks go in a [`FanoutSink`]).
    pub fn with_sink(cap: usize, sink: S) -> Self {
        RecordingSink {
            chunk: Vec::with_capacity(CHUNK_EVENTS),
            recording: Some(Encoder::default()),
            cap,
            sink,
        }
    }

    /// Feeds the last chunk downstream and returns the complete recorded
    /// stream — `None` if it exceeded the cap — and the downstream sink.
    pub fn finish(mut self) -> (Option<Stream>, S) {
        self.flush();
        (self.recording.map(Encoder::finish), self.sink)
    }

    /// The complete recorded stream, decoded, or `None` if it exceeded
    /// the cap.
    pub fn into_events(self) -> Option<Vec<TraceEvent>> {
        Some(self.finish().0?.iter().collect())
    }

    fn flush(&mut self) {
        if let Some(rec) = &mut self.recording {
            if rec.stream.len() + self.chunk.len() > self.cap {
                self.recording = None;
            } else {
                for &ev in &self.chunk {
                    rec.push(ev);
                }
            }
        }
        feed(&self.chunk, &mut self.sink);
        self.chunk.clear();
    }

    fn push(&mut self, ev: TraceEvent) {
        self.chunk.push(ev);
        if self.chunk.len() == CHUNK_EVENTS {
            self.flush();
        }
    }
}

impl<S: TraceSink> TraceSink for RecordingSink<S> {
    fn exec(&mut self, rec: ExecRecord) {
        self.push(TraceEvent::Exec(rec));
    }
    fn data(&mut self, dref: DataRef) {
        self.push(TraceEvent::Data(dref));
    }
}

/// Replays a recorded stream into a sink, exactly as it was emitted.
pub fn replay<S: TraceSink>(events: &[TraceEvent], sink: &mut S) {
    send(events.iter().copied(), sink);
}

fn send<S: TraceSink>(events: impl Iterator<Item = TraceEvent>, sink: &mut S) {
    for ev in events {
        match ev {
            TraceEvent::Exec(rec) => sink.exec(rec),
            TraceEvent::Data(dref) => sink.data(dref),
        }
    }
}

/// Hands `events` to `sink` one 65,536-event chunk at a time, each chunk
/// in a `host_engines` span, so the sink sees exactly the stream
/// [`replay`] gives it. The profiling pipeline's sink is a
/// `hostmodel::HostBatch` that evaluates all of a profile's host setups.
pub fn feed<S: TraceSink>(events: &[TraceEvent], sink: &mut S) {
    for chunk in events.chunks(CHUNK_EVENTS) {
        let _span = gem5prof_obs::span("host_engines");
        replay(chunk, sink);
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
    use testkit::{prop_assert_eq, run_cases, Gen};

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

    /// Collects what it is fed.
    #[derive(Default)]
    struct Collect(Vec<TraceEvent>);

    impl TraceSink for Collect {
        fn exec(&mut self, rec: ExecRecord) {
            self.0.push(TraceEvent::Exec(rec));
        }
        fn data(&mut self, dref: DataRef) {
            self.0.push(TraceEvent::Data(dref));
        }
    }

    fn encoded(events: &[TraceEvent]) -> Stream {
        let mut enc = Encoder::default();
        for &ev in events {
            enc.push(ev);
        }
        enc.finish()
    }

    fn decoded(stream: &Stream) -> Vec<TraceEvent> {
        stream.iter().collect()
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
    fn recorder_keeps_exactly_cap_events() {
        for cap in [0, 2, CHUNK_EVENTS - 1, CHUNK_EVENTS, CHUNK_EVENTS + 3] {
            for len in [cap, cap + 1] {
                let mut r = RecordingSink::with_cap(cap);
                for i in 0..len {
                    r.exec(ExecRecord {
                        variant: i as u32,
                        ..rec(1)
                    });
                }
                let (recording, _) = r.finish();
                assert_eq!(
                    recording.map(|s| s.len()),
                    (len == cap).then_some(cap),
                    "{len} events under cap {cap}"
                );
            }
        }
    }

    #[test]
    fn zero_cap_recorder_records_nothing() {
        let mut r = RecordingSink::with_cap(0);
        for ev in chunked_stream() {
            replay(&[ev], &mut r);
            assert!(r
                .recording
                .as_ref()
                .is_none_or(|e| e.stream.bytes.is_empty()));
        }
        assert!(r.recording.is_none());
        assert!(r.into_events().is_none());
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
        let downstream = FanoutSink::new(vec![RecordingSink::with_cap(usize::MAX); 2]);
        let mut r = RecordingSink::with_sink(cap, downstream);
        for (i, ev) in input.chunks(1).enumerate() {
            replay(ev, &mut r);
            let recorded = r.recording.as_ref().map_or(0, |e| e.stream.len());
            assert!(
                r.chunk.capacity() == CHUNK_EVENTS && recorded <= cap,
                "recorder grew past the bound"
            );
            if i >= 2 * CHUNK_EVENTS {
                assert!(r.recording.is_none(), "the encoding outlived the cap");
            }
        }
        let (recording, sinks) = r.finish();
        assert!(
            recording.is_none(),
            "an over-cap stream must not be recorded"
        );
        for s in sinks.into_inner() {
            assert_eq!(s.into_events().expect("uncapped"), input);
        }
    }

    #[test]
    fn fed_sinks_each_see_the_whole_stream_in_order() {
        let input = chunked_stream();
        for n in [1, 2, 7] {
            let fresh = FanoutSink::new(vec![RecordingSink::with_cap(usize::MAX); n]);
            let mut sinks = FanoutSink::new(fresh.sinks.clone());
            feed(&input, &mut sinks);
            let mut r = RecordingSink::with_sink(usize::MAX, fresh);
            replay(&input, &mut r);
            let (recording, through_recorder) = r.finish();
            let recording = recording.expect("uncapped");
            assert_eq!(decoded(&recording), input);
            let mut from_stream = FanoutSink::new((0..n).map(|_| Collect::default()).collect());
            recording.feed(&mut from_stream);
            let both = sinks
                .into_inner()
                .into_iter()
                .chain(through_recorder.into_inner())
                .map(|s| s.into_events().expect("uncapped"))
                .chain(from_stream.into_inner().into_iter().map(|c| c.0));
            for (i, s) in both.enumerate() {
                assert_eq!(s, input, "sink {i} of {n}");
            }
        }
    }

    #[test]
    fn recorded_stream_feeds_in_host_engines_spans() {
        let stream = encoded(&chunked_stream());
        {
            let _root = gem5prof_obs::span("stream_feed_test");
            stream.feed(&mut NullSink);
        }
        let chunks = gem5prof_obs::span::snapshot()
            .into_iter()
            .find(|n| n.path == ["stream_feed_test", "host_engines"])
            .map(|n| n.count);
        assert_eq!(chunks, Some(4), "one span per 65,536-event chunk");
    }

    /// Exec records as the adapter emits them: each of `funcs` functions
    /// keeps one shape of its own and counts its calls from `first`.
    fn steady_calls(funcs: u32, calls: u32, first: u32) -> Vec<TraceEvent> {
        (0..calls)
            .map(|i| {
                let f = i % funcs;
                TraceEvent::Exec(ExecRecord {
                    func: FunctionId(f),
                    uops: 8 + f as u16,
                    cond_branches: f as u8,
                    variant: first + i / funcs,
                    ..rec(0)
                })
            })
            .collect()
    }

    #[test]
    fn steady_calls_cost_one_byte_after_each_functions_first() {
        // Ten functions below id 16 have one-byte headers. A first call
        // at count 0 spells out its shape (1 + 5 bytes); one that starts
        // at count 1000 also its variant (+ 2 bytes).
        for (first, opening) in [(0, 6), (1000, 8)] {
            let input = steady_calls(10, 1000, first);
            let stream = encoded(&input);
            assert_eq!(stream.byte_len(), 10 * opening + 990, "first call {first}");
            assert_eq!(decoded(&stream), input);
        }
    }

    #[test]
    fn data_refs_cost_a_header_and_a_zigzagged_delta() {
        let input: Vec<TraceEvent> = [0x1000u64, 0x1040, 0x1000, 0x0fc8]
            .into_iter()
            .map(|addr| {
                TraceEvent::Data(DataRef {
                    addr,
                    bytes: 8,
                    write: addr % 128 == 0,
                })
            })
            .collect();
        let stream = encoded(&input);
        // One-byte headers; the steps +0x1000 and +0x40 zigzag to two
        // bytes each, the steps back to one.
        assert_eq!(stream.byte_len(), 4 + 2 + 2 + 1 + 1);
        assert_eq!(decoded(&stream), input);
    }

    /// One generated stream: mostly adapter-like calls with every
    /// explicit case the codec must spell out mixed in.
    fn generated_stream(g: &mut Gen) -> Vec<TraceEvent> {
        let len = match g.u64_in(0..1000) {
            0 => g.usize_in(CHUNK_EVENTS - 2..2 * CHUNK_EVENTS + 3),
            _ => g.usize_in(0..160),
        };
        let funcs: Vec<u32> = (0..g.usize_in(1..12))
            .map(|_| match g.u64_in(0..4) {
                0 => g.u32_in(STATEFUL_FUNCS as u32..u32::MAX) + g.u32_in(0..2),
                1 => *g.pick(&[0, STATEFUL_FUNCS as u32 - 1, STATEFUL_FUNCS as u32]),
                _ => g.u32_in(0..20_000),
            })
            .collect();
        let mut counts = vec![0u32; funcs.len()];
        let mut shapes = vec![rec(0); funcs.len()];
        let mut addr = 0u64;
        (0..len)
            .map(|_| {
                if g.u64_in(0..4) == 0 {
                    addr = match g.u64_in(0..6) {
                        0 => addr.wrapping_add(g.u64_in(0..4096)),
                        1 => addr.wrapping_sub(g.u64_in(0..4096)),
                        2 => *g.pick(&[0, u64::MAX, 1 << 63, (1 << 63) - 1]),
                        _ => g.next_u64(),
                    };
                    let bytes = match g.u64_in(0..4) {
                        0 => *g.pick(&[0, 1, u32::MAX, u32::MAX - 1]),
                        1 => g.next_u64() as u32,
                        _ => g.u32_in(1..256),
                    };
                    return TraceEvent::Data(DataRef {
                        addr,
                        bytes,
                        write: g.bool(),
                    });
                }
                let k = g.usize_in(0..funcs.len());
                let variant = match g.u64_in(0..8) {
                    0 => counts[k].wrapping_sub(1),
                    1 => counts[k].wrapping_add(g.u32_in(2..1000)),
                    2 => *g.pick(&[u32::MAX, u32::MAX - 1, 0]),
                    3 => g.next_u64() as u32,
                    _ => counts[k],
                };
                counts[k] = variant.wrapping_add(1);
                let edge = |g: &mut Gen| {
                    let any = g.u8_in(0..255);
                    *g.pick(&[0, 255, any])
                };
                if g.u64_in(0..4) == 0 {
                    let uops = g.u16_in(0..u16::MAX);
                    shapes[k] = ExecRecord {
                        uops: *g.pick(&[0, 255, u16::MAX, uops]),
                        cond_branches: edge(g),
                        indirect_branches: edge(g),
                        loads: edge(g),
                        stores: edge(g),
                        ..rec(0)
                    };
                }
                TraceEvent::Exec(ExecRecord {
                    func: FunctionId(funcs[k]),
                    variant,
                    ..shapes[k]
                })
            })
            .collect()
    }

    #[test]
    fn generated_streams_round_trip() {
        run_cases("generated_streams_round_trip", 10_000, |g| {
            let input = generated_stream(g);
            let stream = encoded(&input);
            prop_assert_eq!(stream.len(), input.len());
            prop_assert_eq!(stream.iter().len(), input.len());
            prop_assert_eq!(decoded(&stream), input);
            let mut fed = Collect::default();
            stream.feed(&mut fed);
            prop_assert_eq!(fed.0, input);
            Ok(())
        });
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
