//! Shared identifiers and physical units for the BASRPT workspace.
//!
//! Every crate in this workspace speaks in terms of the types defined here:
//! hosts and racks of the simulated fabric, flows and the virtual output
//! queues (VOQs) they live in, byte quantities, link rates and simulation
//! time. Keeping them in one leaf crate avoids accidental unit confusion
//! (e.g. bits vs. bytes, seconds vs. slots) across the scheduler, the
//! slotted switch model and the flow-level fabric simulator.
//!
//! # Example
//!
//! ```
//! use dcn_types::{Bytes, HostId, Rate, SimTime, Voq};
//!
//! let src = HostId::new(3);
//! let dst = HostId::new(77);
//! let voq = Voq::new(src, dst);
//! let size = Bytes::from_kb(20); // a query flow from the paper
//! let rate = Rate::from_gbps(10.0); // edge link
//! let fct = rate.transfer_time(size);
//! assert!(fct > SimTime::ZERO);
//! assert_eq!(voq.src(), src);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod bytes;
mod flow;
mod hash;
mod ids;
mod portset;
mod rate;
mod time;

pub use bytes::Bytes;
pub use flow::{FlowClass, FlowId};
pub use hash::{FastHasher, FastMap, FastSet};
pub use ids::{HostId, PlaneId, RackId, ReplicaId, Voq};
pub use portset::PortSet;
pub use rate::Rate;
pub use time::{InvalidTime, SimTime, Slot};
