//! Single-pass streaming analysis: the accumulator trait and the fan-out
//! pipeline.
//!
//! The paper's probes ran Tstat on-line — per-flow records were folded
//! into the analyses as flows closed, never holding a capture in RAM.
//! This module is that architecture for the reproduction: every analysis
//! in this crate is an [`Accumulate`] implementation (`observe` one
//! record at a time, `finish` into its result type), and a [`Pipeline`]
//! owns a list of accumulators and fans one record stream out to all of
//! them, so the whole analysis happens in **one pass** over the capture.
//! Each [`Pipeline::add`] returns a typed [`Handle`] that
//! [`Pipeline::finish`] later redeems for that stage's output.
//!
//! Determinism: accumulators observe records in capture order (the
//! monitor's finalisation order — see `nettrace::sink`), and every
//! `finish` folds its state in a deterministic (keyed or arrival) order,
//! so a shared pipeline pass is byte-identical to running each
//! accumulator alone over the same records ([`run_one`]).
//! `crates/core/tests/stream_props.rs` pins this equivalence on
//! randomized flow sets.
//!
//! Memory: aggregate accumulators (totals, per-day/per-role maps) hold
//! state bounded by the analysis dimensions (days, roles, addresses),
//! independent of flow count. Distribution accumulators keep one sample
//! per matching flow because the byte-identity contract demands exact
//! ECDF point sets; [`Pipeline::state_bytes`] reports the live state so
//! the streaming bench (`BENCH_stream.json`) can track both kinds.

use nettrace::{FlowRecord, FlowSink};
use std::any::Any;
use std::marker::PhantomData;

/// An incremental analysis: folds a record stream into a result.
///
/// Implementations must be insensitive to anything but the sequence of
/// observed records — two passes over the same stream yield identical
/// outputs.
pub trait Accumulate {
    /// The finished analysis result.
    type Output;

    /// Fold one record into the state.
    fn observe(&mut self, flow: &FlowRecord);

    /// Consume the state into the result.
    fn finish(self) -> Self::Output;

    /// Estimated live state size in bytes (for the streaming bench).
    /// The default covers fixed-size accumulators; container-holding
    /// implementations should override with a capacity-based estimate.
    fn state_bytes(&self) -> usize
    where
        Self: Sized,
    {
        std::mem::size_of::<Self>()
    }
}

/// Object-safe view of an accumulator, so a [`Pipeline`] can own
/// heterogeneous stages and hand each one back as its concrete type.
trait Stage {
    fn observe_record(&mut self, flow: &FlowRecord);
    fn state_bytes(&self) -> usize;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
}

impl<A: Accumulate + 'static> Stage for A {
    fn observe_record(&mut self, flow: &FlowRecord) {
        self.observe(flow);
    }

    fn state_bytes(&self) -> usize {
        Accumulate::state_bytes(self)
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A typed claim on one stage of a [`Pipeline`], returned by
/// [`Pipeline::add`] and redeemed once by [`Pipeline::finish`].
#[must_use = "a stage's output is only reachable through its handle"]
pub struct Handle<A> {
    index: usize,
    stage: PhantomData<fn() -> A>,
}

/// Fan one record stream out to every added accumulator, in the order
/// they were added, in a single pass.
///
/// The pipeline owns its accumulators: [`add`](Pipeline::add) hands back
/// a [`Handle`], and after the pass [`finish`](Pipeline::finish) turns
/// that handle into the accumulator's output. It is a [`FlowSink`], so a
/// monitor or driver can emit completed flows straight into the analyses
/// without materialising a record vector.
#[derive(Default)]
pub struct Pipeline {
    stages: Vec<Box<dyn Stage>>,
    records: u64,
}

/// What [`Pipeline::finish`] leaves in a stage's slot: observes nothing
/// and holds no state.
struct Finished;

impl Accumulate for Finished {
    type Output = ();

    fn observe(&mut self, _flow: &FlowRecord) {}

    fn finish(self) {}
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an accumulator; records observed from now on are fanned out
    /// to it (after all earlier stages).
    pub fn add<A: Accumulate + 'static>(&mut self, acc: A) -> Handle<A> {
        self.stages.push(Box::new(acc));
        Handle {
            index: self.stages.len() - 1,
            stage: PhantomData,
        }
    }

    /// Take the stage behind `handle` out of the pipeline and consume it
    /// into its output. Panics if `handle` came from another pipeline.
    pub fn finish<A: Accumulate + 'static>(&mut self, handle: Handle<A>) -> A::Output {
        let stage = std::mem::replace(&mut self.stages[handle.index], Box::new(Finished));
        let acc = stage.into_any().downcast::<A>();
        acc.expect("handle belongs to this pipeline").finish()
    }

    /// Fan one record out to every stage.
    pub fn observe(&mut self, flow: &FlowRecord) {
        for stage in &mut self.stages {
            stage.observe_record(flow);
        }
        self.records += 1;
    }

    /// Records observed so far.
    pub fn records(&self) -> u64 {
        self.records
    }

    /// Number of stages added.
    pub fn stages(&self) -> usize {
        self.stages.len()
    }

    /// Total estimated live state across all unfinished stages.
    pub fn state_bytes(&self) -> usize {
        self.stages.iter().map(|s| s.state_bytes()).sum()
    }

    /// Drive the pipeline over an in-memory record sequence (the path
    /// for already-materialised captures).
    pub fn run<'f>(&mut self, flows: impl IntoIterator<Item = &'f FlowRecord>) {
        for f in flows {
            self.observe(f);
        }
    }
}

impl FlowSink for Pipeline {
    fn accept(&mut self, flow: FlowRecord) {
        self.observe(&flow);
    }
}

/// Run a single accumulator over an in-memory record sequence — the
/// shim every whole-`Vec` entry point reduces to.
pub fn run_one<'f, A: Accumulate>(
    flows: impl IntoIterator<Item = &'f FlowRecord>,
    mut acc: A,
) -> A::Output {
    for f in flows {
        acc.observe(f);
    }
    acc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nettrace::flow::{DirStats, FlowClose};
    use nettrace::{Endpoint, FlowKey, Ipv4};
    use simcore::SimTime;

    /// A toy accumulator: counts records and sums total bytes.
    #[derive(Default)]
    struct Totals {
        records: u64,
        bytes: u64,
    }

    impl Accumulate for Totals {
        type Output = (u64, u64);

        fn observe(&mut self, flow: &FlowRecord) {
            self.records += 1;
            self.bytes += flow.total_bytes();
        }

        fn finish(self) -> (u64, u64) {
            (self.records, self.bytes)
        }
    }

    fn record(up: u64, down: u64) -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(
                Endpoint::new(Ipv4::new(10, 0, 0, 1), 40_000),
                Endpoint::new(Ipv4::new(107, 22, 0, 1), 443),
            ),
            first_syn: SimTime::from_secs(1),
            last_packet: SimTime::from_secs(2),
            up: DirStats {
                bytes: up,
                ..DirStats::default()
            },
            down: DirStats {
                bytes: down,
                ..DirStats::default()
            },
            min_rtt_ms: None,
            rtt_samples: 0,
            tls_sni: None,
            tls_certificate_cn: None,
            http_host: None,
            server_fqdn: None,
            notify: None,
            close: FlowClose::Fin,
            aborted: false,
        }
    }

    #[test]
    fn pipeline_fans_out_to_all_stages() {
        let flows = vec![record(10, 20), record(1, 2)];
        let mut p = Pipeline::new();
        let a = p.add(Totals::default());
        let b = p.add(Totals::default());
        assert_eq!(p.stages(), 2);
        p.run(&flows);
        assert_eq!(p.records(), 2);
        assert!(p.state_bytes() >= 2 * std::mem::size_of::<Totals>());
        assert_eq!(p.finish(a), (2, 33));
        assert_eq!(p.finish(b), (2, 33));
    }

    #[test]
    fn pipeline_is_a_flow_sink() {
        let mut p = Pipeline::new();
        let a = p.add(Totals::default());
        p.accept(record(5, 5));
        p.accept(record(5, 5));
        assert_eq!(p.finish(a), (2, 20));
    }

    #[test]
    fn run_one_matches_manual_fold() {
        let flows = vec![record(10, 20), record(1, 2), record(0, 7)];
        let streamed = run_one(&flows, Totals::default());
        let mut manual = Totals::default();
        for f in &flows {
            manual.observe(f);
        }
        assert_eq!(streamed, manual.finish());
    }
}
