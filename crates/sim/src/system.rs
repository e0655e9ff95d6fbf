//! System assembly and the simulation run loop.

use crate::config::{CpuModel, ExecTier, SimMode, SystemConfig};
use crate::cpu::{AtomicCpu, CpuBox, MinorCpu, O3Cpu, TimingCpu};
use crate::dyninst::{DynInst, FunctionalCore};
use crate::mem::cache::CacheStats;
use crate::mem::{AccessKind, MemSystem, PhysMem};
use crate::observe::{CompClass, Obs};
use crate::syscall::SyscallState;
use crate::tlb::Tlb;
use crate::trace::Tracer;
use gem5sim_event::{tick::ticks_to_seconds, EventQueue, Priority, StatDump, Tick};
use gem5sim_isa::exec::ArchState;
use gem5sim_isa::{BlockCache, BlockCacheStats, Inst, MemSize, Program};
use std::cell::RefCell;
use std::rc::Rc;

/// State shared by all CPUs: configuration, program, memory system,
/// syscall layer, TLBs and the observer.
#[derive(Debug)]
pub struct Shared {
    /// System configuration.
    pub cfg: SystemConfig,
    /// The workload.
    pub program: Program,
    /// Physical memory.
    pub phys: PhysMem,
    /// Cache hierarchy + DRAM.
    pub mem: MemSystem,
    /// Syscall-emulation state.
    pub sys: SyscallState,
    /// Execution observer.
    pub obs: Obs,
    /// Instruction tracer (gem5's `Exec` debug flag).
    pub tracer: Tracer,
    itlb: Vec<Tlb>,
    dtlb: Vec<Tlb>,
}

impl Shared {
    /// Guest clock period in ticks.
    pub fn period(&self) -> Tick {
        self.cfg.clock.period_ticks()
    }

    /// Hart `cpu`'s clock period in ticks: the system period stretched
    /// by its divider from [`SystemConfig::hart_clock_div`]. Each hart's
    /// tick events land on the shared queue at its own cadence, the way
    /// gem5 clock domains divide a source domain.
    pub fn period_of(&self, cpu: usize) -> Tick {
        self.period() * self.cfg.hart_clock_div.get(cpu).copied().unwrap_or(1)
    }

    /// Converts guest cycles to ticks.
    pub fn cyc(&self, cycles: u64) -> Tick {
        self.cfg.clock.cycles_to_ticks(cycles)
    }

    /// Steps a functional core with all shared state wired in.
    pub fn step_core(&mut self, core: &mut FunctionalCore, now: Tick) -> DynInst {
        self.step_core_hinted(core, now, None)
    }

    /// [`step_core`](Self::step_core) with a predecoded-instruction hint
    /// from the block tier (see [`FunctionalCore::step_hinted`]).
    pub fn step_core_hinted(
        &mut self,
        core: &mut FunctionalCore,
        now: Tick,
        hint: Option<Inst>,
    ) -> DynInst {
        let d = core.step_hinted(
            &self.program,
            &mut self.phys,
            &mut self.sys,
            now,
            &self.obs,
            hint,
        );
        self.tracer.trace(now, core.cpu_id, &d);
        d
    }

    /// Timed instruction fetch: iTLB (FS mode) + I-side hierarchy.
    pub fn fetch_access(&mut self, cpu: usize, pc: u64, now: Tick) -> Tick {
        let mut lat = 0;
        if self.cfg.mode == SimMode::Fs {
            let out = self.itlb[cpu].translate(pc, &self.obs, cpu as u16);
            lat += self.cyc(out.walk_cycles);
        }
        lat + self
            .mem
            .access(cpu, AccessKind::InstFetch, pc, now + lat, &self.obs)
    }

    /// Timed data access: dTLB (FS mode) + D-side hierarchy.
    pub fn data_access(&mut self, cpu: usize, addr: u64, write: bool, now: Tick) -> Tick {
        let mut lat = 0;
        if self.cfg.mode == SimMode::Fs {
            let out = self.dtlb[cpu].translate(addr, &self.obs, cpu as u16);
            lat += self.cyc(out.walk_cycles);
        }
        let kind = if write {
            AccessKind::DataWrite
        } else {
            AccessKind::DataRead
        };
        lat + self.mem.access(cpu, kind, addr, now + lat, &self.obs)
    }

    /// Atomic-mode instruction fetch: warms TLB and caches, no timing.
    pub fn fetch_access_atomic(&mut self, cpu: usize, pc: u64, now: Tick) {
        if self.cfg.mode == SimMode::Fs {
            self.itlb[cpu].translate(pc, &self.obs, cpu as u16);
        }
        let _ = self
            .mem
            .access_atomic(cpu, AccessKind::InstFetch, pc, now, &self.obs);
    }

    /// Atomic-mode data access: warms TLB and caches, no timing.
    pub fn data_access_atomic(&mut self, cpu: usize, addr: u64, write: bool, now: Tick) {
        if self.cfg.mode == SimMode::Fs {
            self.dtlb[cpu].translate(addr, &self.obs, cpu as u16);
        }
        let kind = if write {
            AccessKind::DataWrite
        } else {
            AccessKind::DataRead
        };
        let _ = self.mem.access_atomic(cpu, kind, addr, now, &self.obs);
    }

    /// `(lookups, misses)` aggregated over all iTLBs.
    pub fn itlb_stats(&self) -> (u64, u64) {
        self.itlb
            .iter()
            .fold((0, 0), |(l, m), t| (l + t.lookups, m + t.misses))
    }

    /// `(lookups, misses)` aggregated over all dTLBs.
    pub fn dtlb_stats(&self) -> (u64, u64) {
        self.dtlb
            .iter()
            .fold((0, 0), |(l, m), t| (l + t.lookups, m + t.misses))
    }
}

/// The machine: shared state plus the CPUs.
#[derive(Debug)]
pub struct Machine {
    /// Shared state.
    pub shared: Shared,
    /// The CPUs.
    pub cpus: Vec<CpuBox>,
    /// Per-hart decoded-block caches (block tier).
    pub block_caches: Vec<BlockCache>,
    live_cpus: usize,
}

impl Machine {
    fn cpu_tick(&mut self, eq: &EventQueue, cpu: usize, me: &Rc<RefCell<Machine>>) {
        self.shared
            .obs
            .call(CompClass::EventQueue, "serviceOne", 0, 22);
        let mut boxed = std::mem::take(&mut self.cpus[cpu]);
        let outcome = if self.shared.cfg.exec_tier == ExecTier::Block && boxed.supports_block_tier()
        {
            let b = crate::cpu::block::run_batched(
                &mut boxed,
                &mut self.shared,
                &mut self.block_caches[cpu],
                eq,
            );
            if b.batched > 0 {
                eq.credit_batched(b.batched, b.last_now);
            }
            b.outcome
        } else {
            boxed.tick(&mut self.shared, eq.cur_tick())
        };
        let reached_limit = self
            .shared
            .cfg
            .max_insts
            .is_some_and(|max| boxed.core().committed >= max && !boxed.core().halted);
        self.cpus[cpu] = boxed;
        match outcome.next_at {
            Some(t) if !reached_limit => {
                let me2 = Rc::clone(me);
                eq.schedule_named("cpu_tick", t, Priority::CPU_TICK, move |eq| {
                    let me3 = Rc::clone(&me2);
                    me2.borrow_mut().cpu_tick(eq, cpu, &me3);
                });
            }
            _ => {
                self.live_cpus -= 1;
                if self.live_cpus == 0 {
                    eq.exit_simulation("all harts halted", 0);
                }
            }
        }
    }

    fn timer_tick(&mut self, eq: &EventQueue, me: &Rc<RefCell<Machine>>) {
        if self.live_cpus == 0 {
            return;
        }
        self.shared
            .obs
            .call(CompClass::Device, "timerInterrupt", 0, 45);
        for c in &mut self.cpus {
            if !matches!(c, CpuBox::Empty) && !c.core().halted {
                c.core_mut().irq_pending = true;
            }
        }
        let interval = self.shared.cfg.timer_interval_us * 1_000_000;
        let me2 = Rc::clone(me);
        eq.schedule_named(
            "timer",
            eq.cur_tick() + interval,
            Priority::DEFAULT,
            move |eq| {
                let me3 = Rc::clone(&me2);
                me2.borrow_mut().timer_tick(eq, &me3);
            },
        );
    }
}

/// Results of a simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Final simulated tick.
    pub sim_ticks: Tick,
    /// Total committed guest instructions.
    pub committed_insts: u64,
    /// Events serviced by the queue (a gem5 "host work" proxy).
    pub host_events: u64,
    /// Exit code from the workload, if it called `exit`.
    pub exit_code: Option<i64>,
    /// Guest stdout.
    pub stdout: Vec<u8>,
    /// L1I stats.
    pub l1i: CacheStats,
    /// L1D stats.
    pub l1d: CacheStats,
    /// L2 stats.
    pub l2: CacheStats,
    /// DRAM accesses.
    pub dram_accesses: u64,
    /// Guest iTLB `(lookups, misses)`.
    pub itlb: (u64, u64),
    /// Guest dTLB `(lookups, misses)`.
    pub dtlb: (u64, u64),
    /// Guest branch predictor `(lookups, mispredicts)` (Minor/O3 only).
    pub bp: Option<(u64, u64)>,
    /// Timer interrupts taken (FS mode).
    pub irqs_taken: u64,
    /// Guest clock in GHz (for IPC computation).
    pub clock_ghz: f64,
    /// Per-hart result checksums read back from the guest-ABI slots at
    /// [`gem5sim_isa::GUEST_CHECKSUM_BASE`] after the run. Zero for
    /// workloads that deposit none; tier- and model-invariant for those
    /// that do (memory contents are part of the byte-identity contract).
    pub guest_checksums: Vec<u64>,
}

impl SimResult {
    /// Simulated seconds.
    pub fn sim_seconds(&self) -> f64 {
        ticks_to_seconds(self.sim_ticks)
    }

    /// Guest instructions per guest cycle.
    pub fn guest_ipc(&self) -> f64 {
        let cycles = self.sim_seconds() * self.clock_ghz * 1e9;
        if cycles == 0.0 {
            0.0
        } else {
            self.committed_insts as f64 / cycles
        }
    }

    /// Renders the gem5-style `stats.txt` dump.
    pub fn stat_dump(&self) -> StatDump {
        let mut d = StatDump::new();
        d.scalar("sim_ticks", self.sim_ticks as f64);
        d.scalar("sim_seconds", self.sim_seconds());
        d.scalar("sim_insts", self.committed_insts as f64);
        d.formula("system.cpu.ipc", self.guest_ipc(), "insts/cycles");
        d.scalar("host_event_queue.events", self.host_events as f64);
        d.scalar("system.l1i.accesses", self.l1i.accesses as f64);
        d.formula(
            "system.l1i.miss_rate",
            self.l1i.miss_rate(),
            "misses/accesses",
        );
        d.scalar("system.l1d.accesses", self.l1d.accesses as f64);
        d.formula(
            "system.l1d.miss_rate",
            self.l1d.miss_rate(),
            "misses/accesses",
        );
        d.scalar("system.l2.accesses", self.l2.accesses as f64);
        d.formula(
            "system.l2.miss_rate",
            self.l2.miss_rate(),
            "misses/accesses",
        );
        d.scalar("system.mem_ctrl.accesses", self.dram_accesses as f64);
        d.scalar("system.itlb.misses", self.itlb.1 as f64);
        d.scalar("system.dtlb.misses", self.dtlb.1 as f64);
        if let Some((l, m)) = self.bp {
            d.scalar("system.cpu.branchPred.lookups", l as f64);
            d.formula(
                "system.cpu.branchPred.mispredict_rate",
                if l == 0 { 0.0 } else { m as f64 / l as f64 },
                "mispredicts/lookups",
            );
        }
        d.scalar("system.platform.irqs_taken", self.irqs_taken as f64);
        d
    }
}

/// A complete simulated system, ready to run.
#[derive(Debug)]
pub struct System {
    machine: Rc<RefCell<Machine>>,
    eq: Rc<EventQueue>,
}

impl System {
    /// Builds a system running `program` with no observer attached.
    pub fn new(cfg: SystemConfig, program: Program) -> Self {
        Self::with_observer(cfg, program, Obs::none())
    }

    /// Builds a system with an execution observer (used for host-level
    /// profiling).
    pub fn with_observer(cfg: SystemConfig, program: Program, obs: Obs) -> Self {
        let mem = MemSystem::new(&cfg);
        let phys = PhysMem::new(cfg.mem_size);
        let fs = cfg.mode == SimMode::Fs;
        let irq_handler = program.symbol("__irq_handler");
        let heap_base = program.text_end() + 0x1_0000;

        let mut cpus = Vec::with_capacity(cfg.num_cpus);
        for i in 0..cfg.num_cpus {
            let mut core = FunctionalCore::new(i as u16, program.entry_pc(), fs, irq_handler);
            // ABI setup: per-hart stack at the top of memory, hart id in tp.
            let stack_top = cfg.mem_size - (i as u64) * 0x10_0000 - 64;
            core.arch.write(gem5sim_isa::Reg::SP, stack_top);
            core.arch.write(gem5sim_isa::Reg::TP, i as u64);
            let boxed = match cfg.cpu_model {
                CpuModel::Atomic => CpuBox::Atomic(AtomicCpu::new(core)),
                CpuModel::Timing => CpuBox::Timing(TimingCpu::new(core)),
                CpuModel::Minor => CpuBox::Minor(MinorCpu::new(core, cfg.btb_entries)),
                CpuModel::O3 => CpuBox::O3(O3Cpu::new(core, &cfg)),
            };
            cpus.push(boxed);
        }

        let itlb = (0..cfg.num_cpus)
            .map(|_| Tlb::new(cfg.tlb_entries, cfg.page_size))
            .collect();
        let dtlb = (0..cfg.num_cpus)
            .map(|_| Tlb::new(cfg.tlb_entries, cfg.page_size))
            .collect();

        let live = cpus.len();
        let block_caches = (0..cfg.num_cpus)
            .map(|_| BlockCache::new(cfg.block_cache_blocks))
            .collect();
        let machine = Rc::new(RefCell::new(Machine {
            shared: Shared {
                cfg,
                program,
                phys,
                mem,
                sys: SyscallState::new(heap_base),
                obs,
                tracer: Tracer::none(),
                itlb,
                dtlb,
            },
            cpus,
            block_caches,
            live_cpus: live,
        }));
        System {
            machine,
            eq: Rc::new(EventQueue::new()),
        }
    }

    /// Shared handle to the machine (used by the checkpointing module).
    pub(crate) fn machine_ref(&self) -> Rc<RefCell<Machine>> {
        Rc::clone(&self.machine)
    }

    /// Attaches an instruction tracer (call before [`run`](Self::run)).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.machine.borrow_mut().shared.tracer = tracer;
    }

    /// Final architectural state of hart `cpu` (for differential tests).
    pub fn arch_state(&self, cpu: usize) -> ArchState {
        self.machine.borrow().cpus[cpu].core().arch.clone()
    }

    /// FNV-1a checksum over all of guest physical memory (for
    /// differential tests).
    pub fn mem_checksum(&self) -> u64 {
        self.machine.borrow().shared.phys.checksum()
    }

    /// Decoded-block cache counters, aggregated over all harts. All
    /// zeros when the system ran on the interp tier.
    pub fn block_stats(&self) -> BlockCacheStats {
        let m = self.machine.borrow();
        m.block_caches
            .iter()
            .fold(BlockCacheStats::default(), |a, c| BlockCacheStats {
                hits: a.hits + c.stats.hits,
                compiled: a.compiled + c.stats.compiled,
                evicted: a.evicted + c.stats.evicted,
                invalidated: a.invalidated + c.stats.invalidated,
            })
    }

    /// Runs the simulation to completion and returns the results.
    pub fn run(&mut self) -> SimResult {
        let tier = self.machine.borrow().shared.cfg.exec_tier;
        let _tier_span = gem5prof_obs::span(match tier {
            ExecTier::Interp => "sim_run_interp",
            ExecTier::Block => "sim_run_block",
        });
        let n = self.machine.borrow().cpus.len();
        for cpu in 0..n {
            let me = Rc::clone(&self.machine);
            self.eq
                .schedule_named("cpu_tick", 0, Priority::CPU_TICK, move |eq| {
                    let me2 = Rc::clone(&me);
                    me.borrow_mut().cpu_tick(eq, cpu, &me2);
                });
        }
        let fs = self.machine.borrow().shared.cfg.mode == SimMode::Fs;
        if fs {
            let me = Rc::clone(&self.machine);
            let interval = self.machine.borrow().shared.cfg.timer_interval_us * 1_000_000;
            self.eq
                .schedule_named("timer", interval, Priority::DEFAULT, move |eq| {
                    let me2 = Rc::clone(&me);
                    me.borrow_mut().timer_tick(eq, &me2);
                });
        }
        self.eq.run(None);

        let m = self.machine.borrow();
        // End-of-simulation stats dump, as gem5 performs.
        for _ in 0..4 {
            m.shared.obs.call(CompClass::Stats, "dumpStats", 0, 80);
        }
        // Block-cache counters go to the host-side metrics registry, NOT
        // into [`SimResult`]: results must be tier-invariant, and these
        // counters are not (the interp tier compiles nothing).
        let bs = self.block_stats();
        let reg = gem5prof_obs::global();
        reg.counter(
            "gem5sim_block_cache_hits_total",
            "Block-tier lookups served from the decoded-block cache",
        )
        .add(bs.hits);
        reg.counter(
            "gem5sim_block_cache_compiled_total",
            "Basic blocks decoded on block-cache misses",
        )
        .add(bs.compiled);
        reg.counter(
            "gem5sim_block_cache_evicted_total",
            "Decoded blocks dropped by capacity eviction",
        )
        .add(bs.evicted);
        reg.counter(
            "gem5sim_block_cache_invalidated_total",
            "Decoded blocks dropped by text-version or range invalidation",
        )
        .add(bs.invalidated);

        let committed: u64 = m.cpus.iter().map(|c| c.core().committed).sum();
        let irqs: u64 = m.cpus.iter().map(|c| c.core().irqs_taken).sum();
        let bp = m.cpus.iter().find_map(|c| c.bp_stats());
        let exit_code = m.cpus.iter().find_map(|c| c.core().exit_code);
        // Read back the per-hart checksum slots workloads deposit into
        // (zero when a workload emits none).
        let guest_checksums: Vec<u64> = (0..m.cpus.len() as u64)
            .map(|i| {
                m.shared
                    .phys
                    .read(gem5sim_isa::GUEST_CHECKSUM_BASE + 8 * i, MemSize::D)
            })
            .collect();
        SimResult {
            sim_ticks: self.eq.cur_tick(),
            committed_insts: committed,
            host_events: self.eq.events_serviced(),
            exit_code,
            stdout: m.shared.sys.stdout.clone(),
            l1i: m.shared.mem.l1i_stats(),
            l1d: m.shared.mem.l1d_stats(),
            l2: m.shared.mem.l2_stats(),
            dram_accesses: m.shared.mem.dram_accesses(),
            itlb: m.shared.itlb_stats(),
            dtlb: m.shared.dtlb_stats(),
            bp,
            irqs_taken: irqs,
            clock_ghz: m.shared.cfg.clock.ghz(),
            guest_checksums,
        }
    }
}
