//! # geodns-core — Adaptive-TTL DNS load balancing
//!
//! A faithful, from-scratch reproduction of
//! *"Dynamic Load Balancing in Geographically Distributed Heterogeneous Web
//! Servers"* (Colajanni, Cardellini, Yu — ICDCS 1998): the **adaptive TTL**
//! class of DNS scheduling algorithms, the full simulation model the paper
//! evaluates them on, and an experiment runner that regenerates every table
//! and figure.
//!
//! ## The problem
//!
//! A distributed Web site puts one DNS in front of `N` heterogeneous
//! servers. Name-server caching means the DNS directly routes only a few
//! percent of requests — each answer it gives keeps steering an invisible
//! stream of follow-up requests (the domain's *hidden load*) for a TTL
//! period. With client demand Zipf-skewed across domains and servers of
//! unequal capacity, round-robin melts down.
//!
//! ## The paper's idea
//!
//! Pick the TTL per answer so every mapping carries a similar amount of
//! *work per unit of server capacity*: TTL inversely proportional to the
//! requesting domain's hidden load weight ([`TtlKind::Adaptive`]), and — in
//! the deterministic `TTL/S_*` family — proportional to the chosen server's
//! capacity.
//!
//! ## Quick start
//!
//! ```
//! use geodns_core::{run_simulation, Algorithm, SimConfig};
//! use geodns_server::HeterogeneityLevel;
//!
//! // The paper's champion vs the classic baseline, on a 20%-heterogeneous
//! // site (shortened run for the doctest).
//! let mut cfg = SimConfig::quick(Algorithm::drr2_ttl_s_k(), HeterogeneityLevel::H20);
//! cfg.duration_s = 300.0;
//! cfg.warmup_s = 60.0;
//! let adaptive = run_simulation(&cfg).unwrap();
//!
//! cfg.algorithm = Algorithm::rr();
//! let rr = run_simulation(&cfg).unwrap();
//!
//! // The adaptive scheme keeps the worst server cooler.
//! assert!(adaptive.prob_max_util_lt(0.98) >= rr.prob_max_util_lt(0.98) * 0.8);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`policies`] | RR, RR2, PRR, PRR2, DAL, MRL + baselines |
//! | [`ttl`] | `TTL/i`, `TTL/K`, `TTL/S_i`, `TTL/S_K` + rate normalization |
//! | [`Algorithm`] | the paper's named combinations |
//! | [`SimConfig`] | Table 1/Table 2 defaults, every evaluation knob |
//! | [`World`] / [`run_simulation`] | the event-driven model |
//! | [`Experiment`] / [`run_all`] | parallel sweeps for the benches |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algorithm;
mod classifier;
mod client_cache;
mod clients;
mod config;
mod estimator;
mod experiment;
mod failover;
pub mod obs;
pub mod policies;
mod replay;
mod replication;
mod report;
mod scheduler;
mod service;
mod timeline;
pub mod ttl;
mod world;

pub use algorithm::Algorithm;
pub use classifier::{DomainClasses, TierSpec};
pub use client_cache::ClientCacheModel;
pub use config::{ServerSpec, SimConfig};
pub use estimator::{EstimatorKind, HiddenLoadEstimator};
pub use experiment::{format_table, run_all, Experiment};
pub use failover::{FailoverModel, FailureConfig};
pub use obs::{
    DnsDecision, JsonlTracer, MuxProbe, NoopProbe, ObsConfig, ObsCounters, ObsSnapshot, Probe,
    QueueEvent,
};
pub use policies::{
    Dal, LeastLoaded, Mrl, PolicyKind, ProbabilisticRr, ProbabilisticRr2, RandomChoice, RoundRobin,
    RoundRobin2, RttBand, RttInfo, SchedCtx, SelectionPolicy, WeightedRandom, DEFAULT_BAND_MS,
    UNKNOWN_SERVER_NICENESS_MS,
};
pub use replay::run_trace;
pub use replication::{run_replications, ReplicationSummary};
pub use report::{LatencySummary, SimReport};
pub use scheduler::DnsScheduler;
pub use service::{ServiceModel, ServiceSampler};
pub use timeline::Timeline;
pub use ttl::{TtlKind, TtlScheme};
pub use world::{run_simulation, run_simulation_metered, RunMetrics, World};

// Re-export the substrate types a downstream user needs to drive the API.
pub use geodns_nameserver::{MinTtlBehavior, NsLookup};
pub use geodns_server::{CapacityPlan, HeterogeneityLevel};
pub use geodns_simcore::QueueKind;
pub use geodns_workload::{
    ClientDistribution, LatencyModel, LatencySpec, RateProfile, SessionModel, Trace, TraceSession,
    WorkloadSpec,
};
