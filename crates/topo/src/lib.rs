//! # gnoc-topo
//!
//! GPU hierarchy and floorplan geometry for the `gnoc` workspace — the
//! structural substrate of the paper *Uncovering Real GPU NoC Characteristics*
//! (MICRO 2024).
//!
//! A GPU is described in three layers:
//!
//! - [`GpuSpec`] — declarative device description (Table I data) with the
//!   three paper presets: [`GpuSpec::v100`], [`GpuSpec::a100`],
//!   [`GpuSpec::h100`];
//! - [`Hierarchy`] — the resolved SM/TPC/CPC/GPC/partition and
//!   slice/MP/partition containment tables;
//! - [`Floorplan`] — physical block placement on the die, from which the
//!   engine derives non-uniform wire latency.
//!
//! ```
//! use gnoc_topo::{GpuSpec, SmId, SliceId};
//!
//! let gpu = GpuSpec::v100();
//! let hierarchy = gpu.hierarchy();
//! let plan = gpu.floorplan();
//!
//! assert_eq!(hierarchy.num_sms(), 80);
//! // Wire distance between a core and an L2 slice is what makes latency
//! // non-uniform (paper Observation #1).
//! let d = plan.wire_distance(SmId::new(24), SliceId::new(0));
//! assert!(d > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod fabric;
mod floorplan;
mod geom;
pub mod hash;
mod hierarchy;
mod ids;
mod spec;
mod sweep;

pub use fabric::FabricTopology;
pub use floorplan::Floorplan;
pub use geom::{Point, Rect};
pub use hierarchy::{
    BuildHierarchyError, Hierarchy, HierarchySpec, SliceInfo, SmEnumeration, SmInfo,
};
pub use ids::{CpcId, GpcId, MpId, PartitionId, SliceId, SmId, TpcId};
pub use spec::{CachePolicy, Generation, GpuSpec};
pub use sweep::{apply_sweep, FloorSweep, SweepError};
