//! Property tests over the analysis pipeline: statistical invariants that
//! must hold for *any* input, not just the simulated Internet.

use beware_core::cdf::Cdf;
use beware_core::matching::match_unmatched;
use beware_core::percentile::LatencySamples;
use beware_core::pipeline::{run_pipeline, run_pipeline_with, PipelineCfg};
use beware_core::timeout_table::TimeoutTable;
use beware_dataset::{Record, RecordKind};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_latencies() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.0f64..700.0, 1..200)
}

fn arb_records() -> impl Strategy<Value = Vec<Record>> {
    proptest::collection::vec((0u32..64, 0u32..100_000, arb_kind()), 0..300).prop_map(|entries| {
        entries
            .into_iter()
            .map(|(addr, time_s, kind)| match kind {
                // Normalize Unmatched so recv == time (constructor invariant).
                RecordKind::Unmatched { .. } => Record::unmatched(addr, time_s),
                k => Record { addr, time_s, kind: k },
            })
            .collect()
    })
}

fn arb_kind() -> impl Strategy<Value = RecordKind> {
    prop_oneof![
        (0u32..10_000_000).prop_map(|rtt_us| RecordKind::Matched { rtt_us }),
        Just(RecordKind::Timeout),
        Just(RecordKind::Unmatched { recv_s: 0 }),
        (0u8..16).prop_map(|code| RecordKind::IcmpError { code }),
    ]
}

proptest! {
    #[test]
    fn percentile_bounded_by_extremes(values in arb_latencies(), p in 1.0f64..=100.0) {
        let s = LatencySamples::from_values(values.clone());
        let v = s.percentile(p).unwrap();
        let min = values.iter().cloned().fold(f64::MAX, f64::min);
        let max = values.iter().cloned().fold(f64::MIN, f64::max);
        prop_assert!(v >= min && v <= max);
    }

    #[test]
    fn percentile_monotone(values in arb_latencies(), a in 1.0f64..=100.0, b in 1.0f64..=100.0) {
        let s = LatencySamples::from_values(values);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(s.percentile(lo).unwrap() <= s.percentile(hi).unwrap());
    }

    /// The lazy-sort representation (sorted run + unsorted tail) must be
    /// observationally identical to an eagerly-sorted reference under any
    /// interleaving of `push` with reads — the reads must never see the
    /// tail, whether or not a merge happened to run, and an explicit
    /// `flush` anywhere in the sequence must change nothing observable.
    #[test]
    fn lazy_samples_match_eager_reference(
        ops in proptest::collection::vec((0.0f64..700.0, 0u8..5), 1..250),
        p in 1.0f64..=100.0,
        x in 0.0f64..700.0,
    ) {
        let mut lazy = LatencySamples::new();
        let mut pushed: Vec<f64> = Vec::new();
        for (v, op) in ops {
            lazy.push(v);
            pushed.push(v);
            let eager = LatencySamples::from_values(pushed.clone());
            match op {
                0 => prop_assert_eq!(lazy.percentile(p), eager.percentile(p)),
                1 => prop_assert!(
                    (lazy.fraction_above(x) - eager.fraction_above(x)).abs() < 1e-12
                ),
                2 => prop_assert_eq!(lazy.values().as_ref(), eager.values().as_ref()),
                3 => lazy.flush(),
                _ => {} // push-only step
            }
            prop_assert_eq!(lazy.len(), eager.len());
        }
        let eager = LatencySamples::from_values(pushed);
        prop_assert_eq!(&lazy, &eager);
        prop_assert_eq!(
            lazy.clone().into_sorted_vec(),
            eager.clone().into_sorted_vec()
        );
        prop_assert_eq!(lazy.paper_profile(), eager.paper_profile());
    }

    #[test]
    fn fraction_above_agrees_with_direct_count(values in arb_latencies(), x in 0.0f64..700.0) {
        let s = LatencySamples::from_values(values.clone());
        let direct = values.iter().filter(|&&v| v > x).count() as f64 / values.len() as f64;
        prop_assert!((s.fraction_above(x) - direct).abs() < 1e-12);
    }

    #[test]
    fn cdf_quantile_inverse_bound(values in arb_latencies(), q in 0.01f64..=1.0) {
        let cdf = Cdf::new(values);
        let x = cdf.quantile(q).unwrap();
        // By nearest-rank definition, at least q of the mass is ≤ x.
        prop_assert!(cdf.fraction_at(x) + 1e-12 >= q);
    }

    #[test]
    fn matching_conserves_responses(records in arb_records()) {
        let unmatched = records.iter().filter(|r| r.is_unmatched()).count();
        let timeouts = records.iter().filter(|r| r.is_timeout()).count();
        let m = match_unmatched(&records);
        prop_assert_eq!(m.delayed.len() + m.leftovers.len(), unmatched);
        prop_assert!(m.delayed.len() <= timeouts, "each delayed consumes a timeout");
        // Latency is never negative and requests are never double-used.
        let mut used = std::collections::HashSet::new();
        for d in &m.delayed {
            prop_assert!(used.insert((d.addr, d.sent_s)), "request reused");
        }
    }

    #[test]
    fn pipeline_counts_consistent(records in arb_records()) {
        let out = run_pipeline(&records, &PipelineCfg::default());
        let acc = out.accounting;
        prop_assert!(acc.naive_matching.packets >= acc.survey_detected.packets);
        prop_assert!(acc.survey_plus_delayed.packets <= acc.naive_matching.packets);
        prop_assert!(acc.survey_plus_delayed.addresses <= acc.naive_matching.addresses);
        // The final sample count equals the sum of per-address samples.
        let total: u64 = out.samples.values().map(|s| s.len() as u64).sum();
        prop_assert_eq!(total, acc.survey_plus_delayed.packets);
        // Filters are disjoint and filtered addresses truly absent.
        prop_assert!(out.broadcast_responders.is_disjoint(&out.duplicate_offenders));
        for a in out.broadcast_responders.iter().chain(&out.duplicate_offenders) {
            prop_assert!(!out.samples.contains_key(a));
        }
    }

    /// Telemetry is observation only: for any input, running the pipeline
    /// with an enabled registry must produce bit-for-bit the same output
    /// as running it without one.
    #[test]
    fn pipeline_output_unaffected_by_telemetry(records in arb_records()) {
        let plain = run_pipeline(&records, &PipelineCfg::paper());
        let mut metrics = beware_telemetry::Registry::new();
        let instrumented = run_pipeline_with(&records, &PipelineCfg::paper(), &mut metrics);
        prop_assert_eq!(&plain, &instrumented);
        // And the stage counters agree with the returned accounting.
        prop_assert_eq!(
            metrics.counter("pipeline/stage/survey_plus_delayed/packets"),
            Some(plain.accounting.survey_plus_delayed.packets)
        );
        prop_assert_eq!(metrics.counter("pipeline/records_in"), Some(records.len() as u64));
    }

    #[test]
    fn timeout_table_monotone_everywhere(
        addr_latencies in proptest::collection::vec(arb_latencies(), 1..20)
    ) {
        let samples: BTreeMap<u32, LatencySamples> = addr_latencies
            .into_iter()
            .enumerate()
            .map(|(i, v)| (i as u32, LatencySamples::from_values(v)))
            .collect();
        let t = TimeoutTable::compute(&samples).unwrap();
        for row in &t.cells {
            for w in row.windows(2) {
                prop_assert!(w[1] >= w[0]);
            }
        }
        for c in 0..t.ping_percentiles.len() {
            for r in 1..t.address_percentiles.len() {
                prop_assert!(t.cells[r][c] >= t.cells[r - 1][c]);
            }
        }
    }
}
