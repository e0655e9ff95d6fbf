//! Discrete-event simulation kernel for the `gem5sim` architectural
//! simulator.
//!
//! This crate provides the same structural skeleton that the real gem5
//! simulator is built around and that the paper *Profiling gem5 Simulator*
//! (ISPASS 2023) identifies as its stable core: a central [`EventQueue`]
//! ordered by simulated [`Tick`]s, events that are callbacks on simulation
//! objects, and a statistics framework ([`stats`]).
//!
//! # Example
//!
//! ```
//! use gem5sim_event::{EventQueue, Priority};
//! use std::cell::Cell;
//! use std::rc::Rc;
//!
//! let eq = EventQueue::new();
//! let fired = Rc::new(Cell::new(0u64));
//! let f = Rc::clone(&fired);
//! eq.schedule(100, Priority::DEFAULT, move |eq| {
//!     f.set(eq.cur_tick());
//! });
//! eq.run(None);
//! assert_eq!(fired.get(), 100);
//! ```

pub mod queue;
pub mod stats;
pub mod tick;

pub use queue::{global_events_serviced, EventQueue, ExitStatus, Priority, ScheduleError};
pub use stats::{StatDump, StatValue};
pub use tick::{Frequency, Tick, TICKS_PER_SEC};
