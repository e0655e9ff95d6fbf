//! The bridge from simulator instrumentation to the host instruction
//! stream.

use crate::profile::CallProfile;
use crate::record::{DataRef, ExecRecord, TraceSink};
use crate::registry::{FunctionId, Registry, Site};
use crate::{mix2, mix64};
use gem5sim::observe::{CompClass, ExecutionObserver, HandlerCall};
use std::sync::Arc;

/// Base host virtual address of the simulator's heap-allocated state
/// (SimObject storage). Each component class gets a 256 MB region, each
/// object instance a 1 MB slice.
pub const DATA_SEG_BASE: u64 = 0x10_0000_0000;

/// Translates [`HandlerCall`]s into [`ExecRecord`] streams.
///
/// Every handler invocation becomes: one call of its primary function
/// (entered through virtual dispatch — one indirect branch), followed by a
/// deterministic fan-out of helper calls proportional to the handler's
/// work — parameter checks, packet methods, event (de)scheduling, stat
/// updates, and (30% of the time) allocator/stdlib traffic. This is the
/// call-tree shape VTune observes under each gem5 handler.
///
/// Which functions a call runs depends on its site (component and
/// method) and on its invocation count. The adapter resolves each site
/// against the registry on its first call and keeps it in a table of its
/// own, so later calls hash no method string.
#[derive(Debug)]
pub struct TraceAdapter<S> {
    registry: Arc<Registry>,
    sites: Sites,
    sink: S,
    profile: CallProfile,
    /// Per-component work multipliers (the Sec. VI accelerator study:
    /// what if this component's host work were offloaded/specialized?).
    work_scale: [f32; 16],
}

impl<S: TraceSink> TraceAdapter<S> {
    /// Creates the adapter.
    pub fn new(registry: Arc<Registry>, sink: S) -> Self {
        let profile = CallProfile::new(&registry);
        TraceAdapter {
            registry,
            sites: Sites::default(),
            sink,
            profile,
            work_scale: [1.0; 16],
        }
    }

    /// Scales the host work of one component class by `factor` — models
    /// specializing/offloading that component (the paper's Sec. VI
    /// discussion). `factor = 0.1` models a 10x-accelerated component;
    /// values above 1 model de-optimization.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn set_work_scale(&mut self, comp: CompClass, factor: f32) {
        assert!(factor > 0.0, "work scale must be positive");
        self.work_scale[comp as usize] = factor;
    }

    /// The call profile accumulated so far.
    pub fn profile(&self) -> &CallProfile {
        &self.profile
    }

    /// The shared binary model.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Consumes the adapter, returning `(sink, profile)`.
    pub fn into_parts(self) -> (S, CallProfile) {
        (self.sink, self.profile)
    }
}

/// The adapter's resolved sites: an open-addressed table keyed by the
/// method string's address and length and the component. A `&'static
/// str` never moves and keeps its content, so equal keys are equal
/// sites; two copies of one method name are two entries that resolve
/// alike.
#[derive(Debug)]
struct Sites {
    /// Per bucket, an index into `sites` plus one (0: empty). A power of
    /// two long and at most half full.
    buckets: Vec<u32>,
    sites: Vec<(SiteKey, Site)>,
}

type SiteKey = (usize, usize, CompClass);

impl Default for Sites {
    fn default() -> Self {
        Sites {
            buckets: vec![0; 256],
            sites: Vec::new(),
        }
    }
}

impl Sites {
    /// The first bucket `key` probes in a table of `len` buckets.
    fn bucket(key: SiteKey, len: usize) -> usize {
        let (addr, n, comp) = key;
        let h = (addr as u64 ^ (n as u64) << 40 ^ (comp as u64) << 56)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - len.trailing_zeros())) as usize
    }

    /// The site (`comp`, `method`), resolved against `reg` on first use.
    #[inline]
    fn get(&mut self, reg: &Registry, comp: CompClass, method: &'static str) -> &mut Site {
        let key = (method.as_ptr() as usize, method.len(), comp);
        let mask = self.buckets.len() - 1;
        let mut b = Self::bucket(key, self.buckets.len());
        loop {
            match self.buckets[b] {
                0 => return self.insert(key, reg.site(comp, method)),
                i if self.sites[i as usize - 1].0 == key => {
                    return &mut self.sites[i as usize - 1].1;
                }
                _ => b = (b + 1) & mask,
            }
        }
    }

    #[cold]
    fn insert(&mut self, key: SiteKey, site: Site) -> &mut Site {
        self.sites.push((key, site));
        if self.sites.len() * 2 > self.buckets.len() {
            self.buckets = vec![0; self.buckets.len() * 2];
            for i in 0..self.sites.len() {
                self.place(i);
            }
        } else {
            self.place(self.sites.len() - 1);
        }
        &mut self.sites.last_mut().expect("just pushed").1
    }

    /// Puts site `i` in the first free bucket of its probe sequence.
    fn place(&mut self, i: usize) {
        let mask = self.buckets.len() - 1;
        let mut b = Self::bucket(self.sites[i].0, self.buckets.len());
        while self.buckets[b] != 0 {
            b = (b + 1) & mask;
        }
        self.buckets[b] = i as u32 + 1;
    }
}

/// Emits one handler call doing `work` units: its primary function
/// `pfid`, entered through virtual dispatch, then `work / 18` helpers (at
/// least one), the `i`-th of invocation `variant` being `helper(i,
/// variant)`.
#[inline]
fn emit<S: TraceSink>(
    profile: &mut CallProfile,
    sink: &mut S,
    work: u16,
    pfid: FunctionId,
    mut helper: impl FnMut(u32, u32) -> FunctionId,
) {
    let variant = profile.bump(pfid);
    let w = work as u32;
    sink.exec(ExecRecord {
        func: pfid,
        uops: work.max(8),
        cond_branches: (w / 5).clamp(1, 255) as u8,
        indirect_branches: 1 + (w / 64).min(3) as u8,
        loads: (w / 4).min(255) as u8,
        stores: (w / 7).min(255) as u8,
        variant,
    });

    // Helper fan-out.
    for i in 0..(w / 18).max(1) {
        let hfid = helper(i, variant);
        let hv = profile.bump(hfid);
        let h = mix2(hfid.0 as u64, hv as u64 >> 4);
        let uops = 6 + (h % 18) as u16;
        sink.exec(ExecRecord {
            func: hfid,
            uops,
            cond_branches: 1 + (mix64(h) % 3) as u8,
            indirect_branches: (h % 8 == 0) as u8,
            loads: 1 + (uops / 5) as u8,
            stores: (uops / 8) as u8,
            variant: hv,
        });
    }
}

impl<S: TraceSink> ExecutionObserver for TraceAdapter<S> {
    fn call(&mut self, c: HandlerCall) {
        let scale = self.work_scale[c.comp as usize];
        let work = ((c.work as f32 * scale) as u32).clamp(4, u16::MAX as u32) as u16;
        let site = self.sites.get(&self.registry, c.comp, c.method);
        emit(
            &mut self.profile,
            &mut self.sink,
            work,
            site.primary(),
            |i, v| site.helper(i, v),
        );
    }

    fn data(&mut self, comp: CompClass, obj: u16, offset: u32, bytes: u16, write: bool) {
        let addr = DATA_SEG_BASE
            + (comp as u64) * 0x1000_0000
            + (obj as u64) * 0x10_0000
            + (offset as u64);
        self.sink.data(DataRef {
            addr,
            bytes: bytes as u32,
            write,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PageBacking;
    use crate::record::{CountingSink, RecordingSink, TraceEvent};
    use crate::registry::BinaryVariant;
    use testkit::{prop_assert, prop_assert_eq, run_cases};

    fn adapter() -> TraceAdapter<CountingSink> {
        let reg = Arc::new(Registry::new(BinaryVariant::Base, PageBacking::Base));
        TraceAdapter::new(reg, CountingSink::default())
    }

    /// What the adapter must emit for `calls` (at unit work scale): every
    /// function resolved by `Registry::primary` and `Registry::helper`.
    fn reference(reg: &Registry, calls: &[HandlerCall]) -> (Vec<TraceEvent>, CallProfile) {
        let mut profile = CallProfile::new(reg);
        let mut sink = RecordingSink::with_cap(usize::MAX);
        for c in calls {
            let pfid = reg.primary(c.comp, c.method);
            emit(&mut profile, &mut sink, c.work.max(4), pfid, |i, v| {
                reg.helper(c.comp, c.method, i, v)
            });
        }
        (sink.into_events().expect("uncapped recorder"), profile)
    }

    /// What the adapter emits for `calls`, and its site table.
    fn adapted(
        reg: &Arc<Registry>,
        calls: &[HandlerCall],
    ) -> (Vec<TraceEvent>, CallProfile, Sites) {
        let mut a = TraceAdapter::new(Arc::clone(reg), RecordingSink::with_cap(usize::MAX));
        for &c in calls {
            a.call(c);
        }
        let sites = std::mem::take(&mut a.sites);
        let (sink, profile) = a.into_parts();
        (
            sink.into_events().expect("uncapped recorder"),
            profile,
            sites,
        )
    }

    fn leak(s: &str) -> &'static str {
        Box::leak(s.to_owned().into_boxed_str())
    }

    #[test]
    fn calls_match_the_registry_reference() {
        let reg = Arc::new(Registry::new(BinaryVariant::Base, PageBacking::Base));
        // Two distinct `&'static str`s with equal content, atomic and
        // timing paths, the empty name and a non-ASCII one.
        let (access, copy) = (leak("access"), leak("access"));
        assert_ne!(access.as_ptr(), copy.as_ptr());
        let methods = [
            access,
            copy,
            "recvAtomic",
            "recvAtomicSnoop",
            "atomicRead",
            "recvTimingReq",
            "",
            "fétch",
        ];
        run_cases("calls_match_the_registry_reference", 300, |g| {
            let calls: Vec<HandlerCall> = (0..g.usize_in(1..300))
                .map(|_| HandlerCall {
                    comp: *g.pick(&CompClass::ALL),
                    method: *g.pick(&methods),
                    obj: 0,
                    // Now and then past the helper slots a site keeps.
                    work: match g.u64_in(0..60) {
                        0 => u16::MAX,
                        1 => g.u16_in(4000..u16::MAX),
                        _ => g.u16_in(0..400),
                    },
                })
                .collect();
            let (events, profile, _) = adapted(&reg, &calls);
            let (want_events, want_profile) = reference(&reg, &calls);
            prop_assert_eq!(events.len(), want_events.len());
            if let Some(k) = (0..events.len()).find(|&k| events[k] != want_events[k]) {
                return Err(format!(
                    "event {k}: {:?}, reference {:?}",
                    events[k], want_events[k]
                ));
            }
            prop_assert!(profile == want_profile, "call profiles differ");
            Ok(())
        });
    }

    #[test]
    fn colliding_and_growing_site_tables_keep_the_reference_stream() {
        let reg = Arc::new(Registry::new(BinaryVariant::O3Flag, PageBacking::Base));
        // Three sites sharing their first bucket in the initial table...
        let len = Sites::default().buckets.len();
        let bucket =
            |m: &'static str| Sites::bucket((m.as_ptr() as usize, m.len(), CompClass::L2), len);
        let first = leak("recvAtomicCollide");
        let mut colliding = vec![first];
        for n in 0.. {
            let m = leak(&format!("recvAtomicCollide{n}"));
            if bucket(m) == bucket(first) {
                colliding.push(m);
                if colliding.len() == 3 {
                    break;
                }
            }
        }
        // ...then enough others to grow the table twice.
        let others: Vec<&'static str> = (0..400).map(|n| leak(&format!("site{n}"))).collect();
        let mut calls = Vec::new();
        for round in 0..4u16 {
            for (n, &m) in others.iter().enumerate() {
                calls.push(HandlerCall {
                    comp: CompClass::ALL[n % 16],
                    method: m,
                    obj: 0,
                    work: 20 + round * 40,
                });
                calls.push(HandlerCall {
                    comp: CompClass::L2,
                    method: colliding[n % 3],
                    obj: 0,
                    work: 30 + (n as u16 % 7) * 50,
                });
            }
        }
        let (events, profile, sites) = adapted(&reg, &calls);
        assert_eq!(sites.sites.len(), 403);
        assert!(sites.buckets.len() >= 4 * len, "{}", sites.buckets.len());
        let (want_events, want_profile) = reference(&reg, &calls);
        assert!(events == want_events, "stream diverged from the reference");
        assert!(profile == want_profile, "call profiles differ");
    }

    #[test]
    fn handler_calls_fan_out() {
        let mut a = adapter();
        a.call(HandlerCall {
            comp: CompClass::CpuO3,
            method: "fetch_tick",
            obj: 0,
            work: 60,
        });
        // 1 primary + work/18 = 3 helpers
        assert_eq!(a.profile().total_calls(), 4);
        let (sink, profile) = a.into_parts();
        assert_eq!(sink.execs, 4);
        assert!(sink.uops >= 60 + 3 * 6);
        assert!(profile.functions_touched() >= 3);
    }

    #[test]
    fn repeated_calls_touch_more_functions_then_saturate() {
        let mut a = adapter();
        let mut touched = Vec::new();
        for round in 0..6 {
            for _ in 0..200 {
                a.call(HandlerCall {
                    comp: CompClass::Dcache,
                    method: "access",
                    obj: 0,
                    work: 30,
                });
            }
            touched.push(a.profile().functions_touched());
            let _ = round;
        }
        assert!(touched[1] > touched[0]);
        // Growth slows (coverage saturates).
        let d_early = touched[1] - touched[0];
        let d_late = touched[5] - touched[4];
        assert!(d_late < d_early, "{touched:?}");
    }

    #[test]
    fn data_addresses_partition_by_component_and_object() {
        let mut a = adapter();
        a.data(CompClass::Icache, 0, 0, 64, false);
        a.data(CompClass::Icache, 1, 0, 64, false);
        a.data(CompClass::Dram, 0, 0, 64, true);
        let sink = a.into_parts().0;
        assert_eq!(sink.datas, 3);
    }

    #[test]
    fn variants_increment_per_function() {
        let mut a = adapter();
        let call = HandlerCall {
            comp: CompClass::EventQueue,
            method: "serviceOne",
            obj: 0,
            work: 20,
        };
        a.call(call);
        a.call(call);
        // Primary was called twice.
        let reg = Arc::clone(a.registry());
        let pfid = reg.primary(CompClass::EventQueue, "serviceOne");
        let top = a.profile().hottest(&reg, 5);
        let name = reg.name(pfid);
        assert!(top.iter().any(|(n, c, _)| *n == name && *c == 2));
    }
}
