//! The simulation driver: an event loop connecting one probing agent to
//! the world.
//!
//! Agents are written callback-style against [`Ctx`]: they send packets,
//! set timers, and receive deliveries. The loop schedules through the
//! shared `runtime::TimerQueue` (via
//! [`EventQueue`](crate::event::EventQueue)) and drives a
//! [`SimClock`](crate::time::SimClock) forward as it pops — so timers are
//! genuinely cancellable ([`Ctx::cancel_timer`], retiring the
//! generation-counter idiom) and any component written against
//! `beware_runtime::Clock` can observe the simulated timeline through
//! [`Ctx::clock`]. Execution order stays trivially deterministic:
//! `(time, push-sequence)`, pinned by test.

use crate::event::{EventKey, EventQueue};
use crate::packet::Packet;
use crate::time::{SimClock, SimTime};
use crate::trace::{Direction, Trace};
use crate::world::World;
use beware_runtime::clock::SharedClock;

/// Events the loop dispatches.
#[derive(Debug)]
enum Event {
    Deliver(Packet),
    Timer(u64),
}

/// Handle to a pending timer, returned by [`Ctx::set_timer`] and accepted
/// by [`Ctx::cancel_timer`]. Stale handles (fired or already cancelled)
/// are harmlessly inert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(EventKey);

/// A probing agent driven by the simulation.
pub trait Agent {
    /// Called once at simulation start; schedule initial work here.
    fn start(&mut self, ctx: &mut Ctx<'_>);
    /// A packet arrived at the agent's interface.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>);
    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>);
}

/// The agent's handle to the running simulation.
#[derive(Debug)]
pub struct Ctx<'a> {
    world: &'a mut World,
    queue: &'a mut EventQueue<Event>,
    clock: &'a SimClock,
    now: SimTime,
    stop: &'a mut bool,
    sent: &'a mut u64,
    trace: Option<&'a mut Trace>,
}

impl Ctx<'_> {
    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Transmit a packet into the world; any responses it provokes will be
    /// delivered to [`Agent::on_packet`] at their arrival times.
    pub fn send(&mut self, pkt: Packet) {
        *self.sent += 1;
        if let Some(trace) = self.trace.as_deref_mut() {
            trace.record(self.now, Direction::Sent, &pkt);
        }
        for arrival in self.world.probe(&pkt, self.now) {
            self.queue.push(arrival.at, Event::Deliver(arrival.pkt));
        }
    }

    /// Schedule [`Agent::on_timer`] with `token` at time `at` (clamped to
    /// now if already past). The returned [`TimerId`] can cancel it.
    pub fn set_timer(&mut self, at: SimTime, token: u64) -> TimerId {
        let at = at.max(self.now);
        TimerId(self.queue.push(at, Event::Timer(token)))
    }

    /// Cancel a pending timer. Returns whether it was still pending —
    /// `false` means it already fired or was already cancelled, which
    /// callers may treat as a no-op.
    pub fn cancel_timer(&mut self, id: TimerId) -> bool {
        self.queue.cancel(id.0).is_some()
    }

    /// The simulated timeline as a `beware_runtime::Clock` — hand this to
    /// components (policy estimators, serve engines) that stamp time
    /// through the runtime seam. It reads exactly [`Ctx::now`], advanced
    /// by the event loop.
    pub fn clock(&self) -> SharedClock {
        self.clock.handle()
    }

    /// End the simulation after the current callback returns.
    pub fn stop(&mut self) {
        *self.stop = true;
    }

    /// Read access to the world (e.g. for scenario assertions).
    pub fn world(&self) -> &World {
        self.world
    }
}

/// Outcome of a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSummary {
    /// Time of the last processed event.
    pub end_time: SimTime,
    /// Number of events processed.
    pub events: u64,
    /// Packets the agent transmitted.
    pub packets_sent: u64,
    /// Packets delivered to the agent.
    pub packets_delivered: u64,
    /// Event-queue depth high-water mark.
    pub queue_peak: u64,
}

impl RunSummary {
    /// Flush the run counters into a telemetry scope: counters `events`,
    /// `packets_sent`, `packets_delivered` and max-gauge `queue_peak`
    /// under the scope's prefix.
    pub fn record(&self, scope: &mut beware_telemetry::Scope<'_>) {
        scope.add("events", self.events);
        scope.add("packets_sent", self.packets_sent);
        scope.add("packets_delivered", self.packets_delivered);
        scope.gauge_max("queue_peak", self.queue_peak);
    }
}

/// Event loop binding an [`Agent`] to a [`World`].
#[derive(Debug)]
pub struct Simulation<A> {
    world: World,
    agent: A,
    /// Hard stop: events after this instant are not processed. `None`
    /// means run until the queue drains.
    pub deadline: Option<SimTime>,
    trace: Option<Trace>,
}

impl<A: Agent> Simulation<A> {
    /// Create a simulation over `world` driven by `agent`.
    pub fn new(world: World, agent: A) -> Self {
        Simulation { world, agent, deadline: None, trace: None }
    }

    /// Attach a packet trace retaining the most recent `capacity` packets
    /// crossing the agent's interface; retrieve it from
    /// [`Simulation::run_traced`].
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace = Some(Trace::new(capacity));
        self
    }

    /// Set a hard deadline (useful for open-ended agents).
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Run to completion; returns the agent, the world and run statistics.
    pub fn run(self) -> (A, World, RunSummary) {
        let (agent, world, summary, _) = self.run_traced();
        (agent, world, summary)
    }

    /// Like [`Simulation::run`], additionally returning the packet trace
    /// (empty unless [`Simulation::with_trace`] was called).
    pub fn run_traced(mut self) -> (A, World, RunSummary, Trace) {
        let mut queue = EventQueue::new();
        let clock = SimClock::new();
        let mut stop = false;
        let mut sent = 0u64;
        let mut delivered = 0u64;
        let mut events = 0u64;
        let mut now = SimTime::EPOCH;

        let tracing = self.trace.is_some();
        let mut trace = self.trace.take().unwrap_or_else(|| Trace::new(1));
        {
            let mut ctx = Ctx {
                world: &mut self.world,
                queue: &mut queue,
                clock: &clock,
                now,
                stop: &mut stop,
                sent: &mut sent,
                trace: tracing.then_some(&mut trace),
            };
            self.agent.start(&mut ctx);
        }

        while !stop {
            let Some((at, event)) = queue.pop() else { break };
            if let Some(deadline) = self.deadline {
                if at > deadline {
                    break;
                }
            }
            debug_assert!(at >= now, "event time went backwards");
            now = at;
            clock.advance_to(now);
            events += 1;
            if tracing {
                if let Event::Deliver(pkt) = &event {
                    trace.record(now, Direction::Received, pkt);
                }
            }
            let mut ctx = Ctx {
                world: &mut self.world,
                queue: &mut queue,
                clock: &clock,
                now,
                stop: &mut stop,
                sent: &mut sent,
                trace: tracing.then_some(&mut trace),
            };
            match event {
                Event::Deliver(pkt) => {
                    delivered += 1;
                    self.agent.on_packet(pkt, &mut ctx);
                }
                Event::Timer(token) => self.agent.on_timer(token, &mut ctx),
            }
        }

        let summary = RunSummary {
            end_time: now,
            events,
            packets_sent: sent,
            packets_delivered: delivered,
            queue_peak: queue.peak() as u64,
        };
        (self.agent, self.world, summary, trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BlockProfile;
    use crate::rng::Dist;
    use crate::time::SimDuration;
    use std::sync::Arc;

    const PROBER: u32 = 0x0101_0101;

    fn test_world() -> World {
        let mut w = World::new(3);
        w.add_block(
            0x0a0000,
            Arc::new(BlockProfile {
                base_rtt: Dist::Constant(0.1),
                jitter: Dist::Constant(0.0),
                density: 1.0,
                response_prob: 1.0,
                error_prob: 0.0,
                dup_prob: 0.0,
                ..Default::default()
            }),
        );
        w
    }

    /// Pings one address every second, records (send, recv) times.
    struct PingAgent {
        remaining: u32,
        next_seq: u16,
        rtts: Vec<f64>,
    }

    impl Agent for PingAgent {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer(ctx.now(), 0);
        }

        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            // Sequence number encodes the send second.
            if let crate::packet::L4::Icmp {
                kind: beware_wire::icmp::IcmpKind::EchoReply { seq, .. },
                ..
            } = &pkt.l4
            {
                let sent = f64::from(*seq);
                self.rtts.push(ctx.now().as_secs_f64() - sent);
            }
        }

        fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
            if self.remaining == 0 {
                return;
            }
            self.remaining -= 1;
            let seq = self.next_seq;
            self.next_seq += 1;
            ctx.send(Packet::echo_request(PROBER, 0x0a000042, 7, seq, vec![]));
            if self.remaining > 0 {
                ctx.set_timer(ctx.now() + SimDuration::from_secs(1), 0);
            }
        }
    }

    #[test]
    fn ping_agent_measures_constant_rtt() {
        let agent = PingAgent { remaining: 5, next_seq: 0, rtts: Vec::new() };
        let (agent, world, summary) = Simulation::new(test_world(), agent).run();
        assert_eq!(agent.rtts.len(), 5);
        for rtt in &agent.rtts {
            assert!((rtt - 0.1).abs() < 1e-9, "rtt {rtt}");
        }
        assert_eq!(summary.packets_sent, 5);
        assert_eq!(summary.packets_delivered, 5);
        assert_eq!(world.stats().probes, 5);
        assert_eq!(summary.end_time.as_secs_f64(), 4.1);
    }

    #[test]
    fn deadline_cuts_execution() {
        let agent = PingAgent { remaining: 100, next_seq: 0, rtts: Vec::new() };
        let sim = Simulation::new(test_world(), agent)
            .with_deadline(SimTime::EPOCH + SimDuration::from_secs_f64(2.5));
        let (agent, _, summary) = sim.run();
        // Timers at 0,1,2 fire; replies at 0.1,1.1,2.1 delivered; the
        // timer at 3.0 is beyond the deadline.
        assert_eq!(agent.rtts.len(), 3);
        assert!(summary.end_time <= SimTime::EPOCH + SimDuration::from_secs_f64(2.5));
    }

    #[test]
    fn stop_ends_immediately() {
        struct Stopper {
            fired: u32,
        }
        impl Agent for Stopper {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(ctx.now() + SimDuration::from_secs(1), 1);
                ctx.set_timer(ctx.now() + SimDuration::from_secs(2), 2);
            }
            fn on_packet(&mut self, _: Packet, _: &mut Ctx<'_>) {}
            fn on_timer(&mut self, _token: u64, ctx: &mut Ctx<'_>) {
                self.fired += 1;
                ctx.stop();
            }
        }
        let (agent, _, summary) = Simulation::new(test_world(), Stopper { fired: 0 }).run();
        assert_eq!(agent.fired, 1);
        assert_eq!(summary.events, 1);
    }

    #[test]
    fn cancel_timer_prevents_firing() {
        // A request/timeout pair: the timeout timer is set when the probe
        // goes out and *cancelled* when the reply lands — the pattern the
        // generation-counter idiom used to fake.
        struct CancelAgent {
            pending: Option<TimerId>,
            timeouts: u32,
            replies: u32,
        }
        impl Agent for CancelAgent {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(Packet::echo_request(PROBER, 0x0a000042, 7, 0, vec![]));
                // RTT is 0.1 s; this timeout would fire at 3 s if not
                // cancelled.
                self.pending = Some(ctx.set_timer(ctx.now() + SimDuration::from_secs(3), 9));
            }
            fn on_packet(&mut self, _: Packet, ctx: &mut Ctx<'_>) {
                self.replies += 1;
                let id = self.pending.take().expect("reply implies pending timer");
                assert!(ctx.cancel_timer(id), "timer was still pending");
                assert!(!ctx.cancel_timer(id), "double cancel is inert");
            }
            fn on_timer(&mut self, _: u64, _: &mut Ctx<'_>) {
                self.timeouts += 1;
            }
        }
        let agent = CancelAgent { pending: None, timeouts: 0, replies: 0 };
        let (agent, _, summary) = Simulation::new(test_world(), agent).run();
        assert_eq!(agent.replies, 1);
        assert_eq!(agent.timeouts, 0, "cancelled timer must not fire");
        // Only the delivery is processed; the cancelled timer never
        // surfaces, so the run ends at the reply, not at 3 s.
        assert_eq!(summary.events, 1);
        assert_eq!(summary.end_time.as_secs_f64(), 0.1);
    }

    #[test]
    fn ctx_clock_tracks_simulation_time() {
        struct ClockAgent {
            stamps: Vec<std::time::Duration>,
            handle: Option<beware_runtime::clock::SharedClock>,
        }
        impl Agent for ClockAgent {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                self.handle = Some(ctx.clock());
                ctx.set_timer(ctx.now() + SimDuration::from_millis(1500), 0);
                ctx.set_timer(ctx.now() + SimDuration::from_secs(4), 1);
            }
            fn on_packet(&mut self, _: Packet, _: &mut Ctx<'_>) {}
            fn on_timer(&mut self, _: u64, ctx: &mut Ctx<'_>) {
                let h = self.handle.as_ref().unwrap();
                assert_eq!(h.now(), std::time::Duration::from(ctx.now()));
                self.stamps.push(h.now());
            }
        }
        let agent = ClockAgent { stamps: Vec::new(), handle: None };
        let (agent, _, _) = Simulation::new(test_world(), agent).run();
        assert_eq!(
            agent.stamps,
            vec![std::time::Duration::from_millis(1500), std::time::Duration::from_secs(4)]
        );
    }

    #[test]
    fn trace_captures_both_directions() {
        let agent = PingAgent { remaining: 3, next_seq: 0, rtts: Vec::new() };
        let (_, _, _, trace) = Simulation::new(test_world(), agent).with_trace(16).run_traced();
        assert_eq!(trace.captured, 6, "3 sent + 3 received");
        let sent = trace.entries().filter(|e| e.dir == crate::trace::Direction::Sent).count();
        assert_eq!(sent, 3);
        assert!(trace.render().contains("ICMP echo request"));
    }

    #[test]
    fn no_trace_by_default() {
        let agent = PingAgent { remaining: 2, next_seq: 0, rtts: Vec::new() };
        let (_, _, _, trace) = Simulation::new(test_world(), agent).run_traced();
        assert!(trace.is_empty());
        assert_eq!(trace.captured, 0);
    }

    #[test]
    fn summary_tracks_queue_peak_and_records() {
        let agent = PingAgent { remaining: 5, next_seq: 0, rtts: Vec::new() };
        let (_, world, summary) = Simulation::new(test_world(), agent).run();
        // At least a timer and a pending delivery coexist at some point.
        assert!(summary.queue_peak >= 2, "peak {}", summary.queue_peak);

        let mut reg = beware_telemetry::Registry::new();
        let mut scope = reg.scope("netsim");
        summary.record(&mut scope);
        world.stats().record(&mut scope);
        assert_eq!(reg.counter("netsim/packets_sent"), Some(5));
        assert_eq!(reg.counter("netsim/probes"), Some(5));
        assert_eq!(reg.counter("netsim/responses_by_profile/plain"), Some(5));
        assert!(matches!(
            reg.get("netsim/queue_peak"),
            Some(beware_telemetry::Metric::Gauge(p)) if *p >= 2
        ));
    }

    #[test]
    fn deterministic_summary() {
        let run = || {
            let agent = PingAgent { remaining: 10, next_seq: 0, rtts: Vec::new() };
            let (a, _, s) = Simulation::new(test_world(), agent).run();
            (a.rtts, s)
        };
        assert_eq!(run(), run());
    }
}
