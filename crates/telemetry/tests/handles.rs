//! Pre-resolved handles against the `Scope` string API: both faces
//! record into the same slots, so every export must be byte-identical
//! whichever face recorded, and a handle resolved but never recorded
//! must be invisible.

use beware_telemetry::{Metric, Registry};
use proptest::prelude::*;

/// `(scope, name, kind)` — the kind of a name is fixed, as callers must
/// keep it. Deterministic, `sched/` and `walltime/` families all appear.
const NAMES: [(&str, &str, u8); 6] = [
    ("serve", "requests", 0),
    ("serve", "queue_peak", 1),
    ("serve", "rtt_us", 2),
    ("sched/serve", "cache_hits", 0),
    ("walltime/serve", "request_ns", 2),
    ("netsim", "events", 0),
];

fn full((scope, name, _): (&str, &str, u8)) -> String {
    format!("{scope}/{name}")
}

fn by_scope(ops: &[(usize, u64)]) -> Registry {
    let mut reg = Registry::new();
    for &(i, v) in ops {
        let (scope, name, kind) = NAMES[i];
        let mut s = reg.scope(scope);
        match kind {
            0 => s.add(name, v),
            1 => s.gauge_max(name, v),
            _ => s.observe(name, v),
        }
    }
    reg
}

fn by_handle(ops: &[(usize, u64)]) -> Registry {
    let mut reg = Registry::new();
    let counters: Vec<_> = NAMES.iter().map(|&n| reg.counter_id(&full(n))).collect();
    let gauges: Vec<_> = NAMES.iter().map(|&n| reg.gauge_id(&full(n))).collect();
    let histograms: Vec<_> = NAMES.iter().map(|&n| reg.histogram_id(&full(n))).collect();
    for &(i, v) in ops {
        match NAMES[i].2 {
            0 => reg.add(counters[i], v),
            1 => reg.gauge_max(gauges[i], v),
            _ => reg.observe(histograms[i], v),
        }
    }
    reg
}

proptest! {
    #[test]
    fn handle_and_scope_exports_are_byte_identical(
        ops in proptest::collection::vec((0usize..NAMES.len(), 0u64..100_000), 0..64),
    ) {
        let (scoped, handled) = (by_scope(&ops), by_handle(&ops));
        prop_assert_eq!(scoped.to_json(), handled.to_json());
        prop_assert_eq!(scoped.render_text(), handled.render_text());
        prop_assert_eq!(scoped.len(), handled.len());
    }
}

#[test]
fn resolved_but_unrecorded_handles_are_invisible() {
    let mut plain = Registry::new();
    plain.scope("serve").add("requests", 3);
    let mut resolved = Registry::new();
    resolved.scope("serve").add("requests", 3);
    resolved.counter_id("serve/zzz_never");
    resolved.gauge_id("aaa/never");
    resolved.histogram_id("sched/never");

    assert_eq!(resolved.to_json(), plain.to_json());
    assert_eq!(resolved.render_text(), plain.render_text());
    assert_eq!(resolved.iter().collect::<Vec<_>>(), plain.iter().collect::<Vec<_>>());
    assert_eq!(resolved.len(), 1);
    assert!(!resolved.is_empty());
    assert_eq!(resolved.get("aaa/never"), None);
    assert_eq!(resolved.counter("serve/zzz_never"), Some(0));

    let mut only_resolved = Registry::new();
    only_resolved.counter_id("serve/requests");
    assert!(only_resolved.is_empty());
    assert_eq!(only_resolved.len(), 0);
    assert_eq!(only_resolved.to_json(), Registry::new().to_json());

    // Merging carries no ghost slot across either way.
    let mut into = Registry::new();
    into.merge(&resolved);
    assert_eq!(into.to_json(), plain.to_json());
    assert_eq!(into.len(), 1);
    let mut ghosts = Registry::new();
    ghosts.counter_id("serve/requests");
    ghosts.merge(&only_resolved);
    assert!(ghosts.is_empty());
}

#[test]
fn merge_across_different_resolution_orders() {
    let mut a = Registry::new();
    let (a_hist, a_count) = (a.histogram_id("m/lat"), a.counter_id("m/count"));
    a.add(a_count, 2);
    a.observe(a_hist, 10);
    let mut b = Registry::new();
    let (b_count, b_peak, b_hist) =
        (b.counter_id("m/count"), b.gauge_id("m/peak"), b.histogram_id("m/lat"));
    b.add(b_count, 5);
    b.gauge_max(b_peak, 7);
    b.observe(b_hist, 1_000);

    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab.to_json(), ba.to_json());
    assert_eq!(ab.counter("m/count"), Some(7));
    assert_eq!(ab.get("m/peak"), Some(&Metric::Gauge(7)));
    match ab.get("m/lat") {
        Some(Metric::Histogram(h)) => assert_eq!((h.count, h.min, h.max), (2, 10, 1_000)),
        other => panic!("{other:?}"),
    }
    // The originals' handles still record into their own registries.
    a.add(a_count, 1);
    assert_eq!(a.counter("m/count"), Some(3));
}

#[test]
fn clone_gets_a_fresh_identity() {
    let mut reg = Registry::new();
    reg.counter_id("x");
    let copy = reg.clone();
    assert_ne!(copy.id(), reg.id());
    assert_ne!(Registry::new().id(), Registry::new().id());
}

#[test]
#[should_panic(expected = "did not resolve it")]
fn handle_on_a_clone_panics() {
    let mut reg = Registry::new();
    let id = reg.counter_id("x");
    reg.incr(id);
    let mut copy = reg.clone();
    copy.incr(id);
}

#[test]
#[should_panic(expected = "did not resolve it")]
fn handle_on_a_foreign_registry_panics() {
    let mut a = Registry::new();
    let id = a.counter_id("x");
    Registry::new().incr(id);
}

#[test]
fn handles_are_inert_on_a_disabled_registry() {
    let mut off = Registry::disabled();
    let id = off.counter_id("x");
    off.incr(id);
    // A disabled registry records nothing, whichever registry resolved
    // the handle.
    let foreign = Registry::new().histogram_id("y");
    off.observe(foreign, 3);
    assert!(off.is_empty());
}

#[test]
#[should_panic(expected = "not a counter")]
fn kind_confusion_through_a_handle_panics() {
    let mut reg = Registry::new();
    reg.scope("m").gauge_max("x", 1);
    let id = reg.counter_id("m/x");
    reg.incr(id);
}

#[test]
#[should_panic(expected = "not a histogram")]
fn kind_confusion_from_handle_to_scope_panics() {
    let mut reg = Registry::new();
    let id = reg.counter_id("m/x");
    reg.incr(id);
    reg.scope("m").observe("x", 1);
}
