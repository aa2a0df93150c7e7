//! # maco-sim — discrete-event simulation kernel
//!
//! The foundation of the MACO reproduction: a deterministic, single-threaded
//! discrete-event simulation (DES) kernel. Every other crate in the workspace
//! expresses hardware behaviour as state machines driven by events scheduled
//! through this kernel.
//!
//! The kernel provides:
//!
//! * [`SimTime`] / [`SimDuration`] — picosecond-resolution simulated time.
//! * [`ClockDomain`] — cycle↔time conversion for the paper's three clock
//!   domains (CPU 2.2 GHz, MMAE 2.5 GHz, NoC 2.0 GHz).
//! * [`EventQueue`] — a deterministic priority queue of typed events keyed
//!   `(time, class, seq)` ([`EventKey`]): ties break by event class, then
//!   FIFO, so identical runs produce identical traces.
//! * [`Stats`] — named counters and scalar gauges used by every component to
//!   report utilisation, hit rates and traffic.
//! * [`BandwidthResource`] / [`LatencyBandwidthResource`] — queuing models
//!   for shared links, DRAM channels and cache-controller ports.
//! * [`SplitMix64`] — a tiny deterministic PRNG for components that need
//!   reproducible pseudo-randomness without pulling in `rand`.
//! * [`FxHashMap`] — a deterministic, fast hasher for the simulator's hot
//!   integer-keyed maps (translation memos, TLB indices).
//! * [`Timeline`] — a lightweight activity recorder used to regenerate the
//!   paper's Fig. 5(c) GEMM⁺ overlap diagram.
//!
//! # Example
//!
//! ```
//! use maco_sim::{EventQueue, SimTime, ClockDomain};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Ping, Pong }
//!
//! let clk = ClockDomain::from_ghz(2.5);
//! let mut q = EventQueue::new();
//! q.schedule(SimTime::ZERO + clk.cycles(10), 0, Ev::Ping);
//! q.schedule(SimTime::ZERO + clk.cycles(4), 0, Ev::Pong);
//! let (key, ev) = q.pop().expect("event");
//! assert_eq!(ev, Ev::Pong);
//! assert_eq!(clk.cycles_at(key.time), 4);
//! ```

pub mod events;
pub mod hash;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod timeline;

pub use events::{EventKey, EventQueue};
pub use hash::{fold_fingerprint, FxBuildHasher, FxHashMap, FxHasher};
pub use resource::{BandwidthResource, LatencyBandwidthResource, ThroughputMeter};
pub use rng::SplitMix64;
pub use stats::Stats;
pub use time::{ClockDomain, SimDuration, SimTime};
pub use timeline::{Activity, Timeline};
