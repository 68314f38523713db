//! # mlp-workload — workload patterns and request-stream generation
//!
//! Implements the paper's three realistic workload patterns (Fig 9, drawn
//! from a production datacenter): **L1** pulse-like peak, **L2** fluctuating
//! load, **L3** periodic wide peaks — plus [`RateSchedule`] overlays (flash
//! crowds, diurnal swings), the one non-homogeneous Poisson sampler that
//! turns a rate curve and a request mix into a concrete request stream
//! ([`OpenLoopSource`]), and a synthetic stand-in for the Alibaba
//! cluster-trace container-utilization data of Fig 3b.
//!
//! Two ways to consume a workload, both drawing from that one sampler:
//!
//! * **dense** — [`generate_stream`] collects an [`OpenLoopSource`] over a
//!   steady schedule into a trace up front (figure runs, byte-identical
//!   replays);
//! * **streaming** — an [`ArrivalSource`] is pulled one arrival at a time
//!   ([`OpenLoopSource`] generates lazily with no horizon-length buffers;
//!   [`SliceSource`] adapts a dense trace to the pull interface).

pub mod alibaba;
pub mod arrivals;
pub mod error;
pub mod patterns;
pub mod schedule;
pub mod source;

pub use alibaba::AlibabaTraceConfig;
pub use arrivals::{
    empirical_rate, generate_stream, try_generate_stream, validate_stream_params, Arrival,
};
pub use error::WorkloadError;
pub use patterns::WorkloadPattern;
pub use schedule::{RateSchedule, RateSegment, Sinusoid};
pub use source::{collect_source, ArrivalSource, OpenLoopSource, SliceSource};
