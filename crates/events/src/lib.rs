//! Event substrate for the TESC reproduction.
//!
//! The paper models an *attributed graph*: every node `v` carries a set
//! of events `Q_v ⊆ Q` (Sec. 2). This crate provides:
//!
//! * [`store`] — the event registry ([`store::EventStore`]) mapping
//!   named events to their occurrence node sets, plus the dense
//!   [`store::NodeMask`] used for O(1) membership tests during density
//!   BFS sweeps.
//! * [`simulate`] — the synthetic event machinery of Sec. 5.2:
//!   positively correlated "linked pair" events (Gaussian hop
//!   distances), negatively correlated events (placed outside
//!   `V^h_a`), the noise models that gradually break both, and
//!   independent events for Type-I-error experiments.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod io;
pub mod simulate;
pub mod store;

pub use store::{EventId, EventStore, EventStoreError, MaskSelect, NodeMask};
