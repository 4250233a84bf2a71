//! The streaming record boundary between capture and analysis.
//!
//! A [`FlowSink`] consumes completed [`FlowRecord`]s one at a time, in
//! the order the monitor finalises them. It is the seam the whole
//! pipeline hangs on: `tstat::Monitor` drains finished flows into a
//! sink, the workload driver emits a capture into a sink as it renders,
//! and the analysis layer's fan-out pipeline *is* a sink — so a capture
//! can be simulated, serialised, re-read and analysed without ever
//! materialising the full record vector.
//!
//! Determinism contract: a sink observes records in a single canonical
//! order (the monitor's finalisation order). Producers never reorder,
//! batch or drop records on the way into a sink, so feeding the same
//! capture through any sink chain is byte-reproducible.

use crate::flow::FlowRecord;

/// A consumer of completed flow records.
pub trait FlowSink {
    /// Accept one completed record. Called exactly once per record, in
    /// capture order.
    fn accept(&mut self, flow: FlowRecord);
}

/// The materialising sink: collect records into a vector (the legacy
/// behaviour every pre-streaming call path reduces to).
impl FlowSink for Vec<FlowRecord> {
    fn accept(&mut self, flow: FlowRecord) {
        self.push(flow);
    }
}

/// A sink that counts records and forwards nothing — useful to measure a
/// producer without paying for storage.
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Number of records accepted so far.
    pub records: u64,
}

impl FlowSink for CountingSink {
    fn accept(&mut self, _flow: FlowRecord) {
        self.records += 1;
    }
}

/// Ordered re-assembly of a record stream that was produced in spans.
///
/// A producer split into contiguous spans (e.g. the household ranges of
/// one capture) finishes its spans in arbitrary wall-clock order. Each
/// span's records land in their own slot — [`SpanMerge::span_sink`] hands
/// out the slot's [`FlowSink`] — and [`SpanMerge::into_flows`] releases
/// everything in slot order: the single canonical order the serial
/// producer would have emitted. The merge never reorders, drops, or
/// batches records *within* a span, so when the spans partition the
/// serial stream, the merged stream is byte-identical to it.
pub struct SpanMerge {
    slots: Vec<Vec<FlowRecord>>,
}

impl SpanMerge {
    /// A merge expecting `spans` slots.
    pub fn new(spans: usize) -> SpanMerge {
        SpanMerge {
            slots: (0..spans).map(|_| Vec::new()).collect(),
        }
    }

    /// The sink for one span's records. `slot` is the span's position in
    /// the canonical order — never its completion order.
    pub fn span_sink(&mut self, slot: usize) -> &mut impl FlowSink {
        &mut self.slots[slot]
    }

    /// Accept a whole span materialised elsewhere (panics if the slot was
    /// already filled — every span has exactly one producer).
    pub fn accept_span(&mut self, slot: usize, flows: Vec<FlowRecord>) {
        assert!(self.slots[slot].is_empty(), "span slot {slot} filled twice");
        self.slots[slot] = flows;
    }

    /// Total records held across all slots so far.
    pub fn len(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }

    /// True when no slot holds any record yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Release every record in span order.
    pub fn into_flows(self) -> Vec<FlowRecord> {
        let total = self.len();
        let mut spans = self.slots.into_iter();
        // The first span's buffer becomes the output, so a one-span merge
        // moves its records without copying them.
        let mut out = spans.next().unwrap_or_default();
        out.reserve_exact(total - out.len());
        for span in spans {
            out.extend(span);
        }
        out
    }
}

/// Fan one record out to two sinks (records are cloned into the first,
/// moved into the second). Chains compose: `Tee(a, Tee(b, c))`.
pub struct Tee<'a, A: FlowSink, B: FlowSink>(pub &'a mut A, pub &'a mut B);

impl<A: FlowSink, B: FlowSink> FlowSink for Tee<'_, A, B> {
    fn accept(&mut self, flow: FlowRecord) {
        self.0.accept(flow.clone());
        self.1.accept(flow);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{Endpoint, FlowKey, Ipv4};
    use crate::flow::{DirStats, FlowClose};
    use simcore::SimTime;

    fn record(port: u16) -> FlowRecord {
        FlowRecord {
            key: FlowKey::new(
                Endpoint::new(Ipv4::new(10, 0, 0, 1), port),
                Endpoint::new(Ipv4::new(107, 22, 0, 1), 443),
            ),
            first_syn: SimTime::from_secs(1),
            last_packet: SimTime::from_secs(2),
            up: DirStats::default(),
            down: DirStats::default(),
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
    fn vec_sink_preserves_order() {
        let mut v: Vec<FlowRecord> = Vec::new();
        for p in [1u16, 2, 3] {
            v.accept(record(p));
        }
        let ports: Vec<u16> = v.iter().map(|f| f.key.client.port).collect();
        assert_eq!(ports, [1, 2, 3]);
    }

    #[test]
    fn span_merge_releases_slot_order_regardless_of_arrival() {
        let mut merge = SpanMerge::new(3);
        // Spans complete out of order; slots keep the canonical order.
        merge.accept_span(2, vec![record(5), record(6)]);
        merge.span_sink(0).accept(record(1));
        merge.span_sink(0).accept(record(2));
        merge.accept_span(1, vec![record(3), record(4)]);
        assert_eq!(merge.len(), 6);
        assert!(!merge.is_empty());
        let ports: Vec<u16> = merge
            .into_flows()
            .iter()
            .map(|f| f.key.client.port)
            .collect();
        assert_eq!(ports, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    #[should_panic(expected = "filled twice")]
    fn span_merge_rejects_double_fill() {
        let mut merge = SpanMerge::new(1);
        merge.accept_span(0, vec![record(1)]);
        merge.accept_span(0, vec![record(2)]);
    }

    #[test]
    fn tee_feeds_both_sinks() {
        let mut a: Vec<FlowRecord> = Vec::new();
        let mut b = CountingSink::default();
        {
            let mut tee = Tee(&mut a, &mut b);
            tee.accept(record(7));
            tee.accept(record(8));
        }
        assert_eq!(a.len(), 2);
        assert_eq!(b.records, 2);
    }
}
