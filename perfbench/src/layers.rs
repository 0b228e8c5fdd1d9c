//! Per-layer attribution for the traced run, measured from outside the
//! program.
//!
//! [`Timed`] wraps one [`LbRank`] in a pass-through [`Protocol`]: every
//! handler call is forwarded unchanged and timed, and its wall time is
//! charged to the [`Class`] of the message that triggered it. A handler
//! call during which [`LbRank::stage`] changed is charged to
//! [`Class::Stage`] instead: that call ran an engine stage transition
//! (the CMF and transfer kernels run there), whatever message
//! triggered it. The simulator's own time (event queue, timer wheel,
//! latency draws, fault application) is what is left of
//! `Simulator::run` after all handler time is taken out.
//!
//! The wrapper forwards [`Protocol::faultable`] and
//! [`Protocol::corrupted`], so the simulator applies the same fault
//! stream with and without it: a traced call must produce the same
//! events, messages, bytes and assignment as the untraced one.

use std::time::Instant;
use tempered_core::distribution::Distribution;
use tempered_core::ids::RankId;
use tempered_core::rng::RngFactory;
use tempered_core::task::Task;
use tempered_runtime::lb::LbRank;
use tempered_runtime::lb::{LbMsg, LbWire, Stage};
use tempered_runtime::sim::Ctx;
use tempered_runtime::{
    run_distributed_lb_with_faults, DistLbResult, FaultPlan, LbProtocolConfig, NetworkModel,
    Protocol, ReliableStats, Simulator,
};

/// A message class: the layer a handler call is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Class {
    /// Termination-detection control traffic (`Td`).
    Termination,
    /// Gossip knowledge propagation.
    Gossip,
    /// Any handler call that changed the engine stage, plus engine start.
    Stage,
    /// Propose, ProposeReply, Fetch, TaskData.
    Transfer,
    /// Tree reduce and broadcast (ReduceUp, ReduceDown).
    Collective,
    /// Reliable-delivery mechanics: Ack, RetryTimer, damaged frames.
    Reliable,
    /// Heartbeat failure detection: Heartbeat, HeartbeatTimer.
    Health,
    /// View, Knock, Heal and the stage and park timers.
    Membership,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 8] = [
        Class::Termination,
        Class::Gossip,
        Class::Stage,
        Class::Transfer,
        Class::Collective,
        Class::Reliable,
        Class::Health,
        Class::Membership,
    ];

    /// Metric-name prefix of the class.
    pub fn name(self) -> &'static str {
        match self {
            Class::Termination => "termination",
            Class::Gossip => "lb.gossip",
            Class::Stage => "lb.stage",
            Class::Transfer => "lb.transfer",
            Class::Collective => "collective",
            Class::Reliable => "reliable",
            Class::Health => "health",
            Class::Membership => "membership",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// The class of a protocol payload.
fn classify_msg(msg: &LbMsg) -> Class {
    match msg {
        LbMsg::Td(_) => Class::Termination,
        LbMsg::Gossip { .. } => Class::Gossip,
        LbMsg::Propose { .. }
        | LbMsg::ProposeReply { .. }
        | LbMsg::Fetch { .. }
        | LbMsg::TaskData { .. } => Class::Transfer,
        LbMsg::ReduceUp { .. } | LbMsg::ReduceDown { .. } => Class::Collective,
        LbMsg::View { .. } | LbMsg::Knock | LbMsg::Heal { .. } => Class::Membership,
    }
}

/// The class of a delivered frame, before stage-change reclassification.
/// Reliable `Data` frames are charged to their payload's class.
pub fn classify(wire: &LbWire) -> Class {
    match wire {
        LbWire::Raw(msg) | LbWire::Data { msg, .. } => classify_msg(msg),
        LbWire::Ack { .. } | LbWire::RetryTimer { .. } | LbWire::Damaged { .. } => Class::Reliable,
        LbWire::Heartbeat | LbWire::HeartbeatTimer => Class::Health,
        LbWire::StageTimer { .. } | LbWire::ParkTimer { .. } => Class::Membership,
    }
}

/// The class a handler call is charged to: [`Class::Stage`] when the
/// call moved the engine to another stage, else the message's class.
pub fn attribute(class: Class, before: Stage, after: Stage) -> Class {
    if before != after {
        Class::Stage
    } else {
        class
    }
}

/// Handler wall time and call count per class.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Ledger {
    /// Seconds spent in handlers, by [`Class`] index.
    self_s: [f64; 8],
    /// Handler calls, by [`Class`] index.
    count: [u64; 8],
}

impl Ledger {
    /// Charge one handler call of `secs` to `class`.
    pub fn charge(&mut self, class: Class, secs: f64) {
        self.self_s[class.index()] += secs;
        self.count[class.index()] += 1;
    }

    /// Add another ledger into this one.
    pub fn merge(&mut self, other: &Ledger) {
        for i in 0..self.self_s.len() {
            self.self_s[i] += other.self_s[i];
            self.count[i] += other.count[i];
        }
    }

    /// Seconds charged to `class`.
    pub fn self_s(&self, class: Class) -> f64 {
        self.self_s[class.index()]
    }

    /// Calls charged to `class`.
    pub fn count(&self, class: Class) -> u64 {
        self.count[class.index()]
    }

    /// Total handler seconds over all classes.
    pub fn handler_s(&self) -> f64 {
        self.self_s.iter().sum()
    }
}

/// Pass-through [`Protocol`] timing every handler call of one rank.
#[derive(Debug)]
pub(crate) struct Timed {
    inner: LbRank,
    ledger: Ledger,
}

impl Timed {
    /// Wrap a rank.
    pub(crate) fn new(inner: LbRank) -> Self {
        Timed {
            inner,
            ledger: Ledger::default(),
        }
    }
}

impl Protocol for Timed {
    type Msg = LbWire;

    fn on_start(&mut self, ctx: &mut Ctx<'_, LbWire>) {
        let t0 = Instant::now();
        self.inner.on_start(ctx);
        self.ledger.charge(Class::Stage, t0.elapsed().as_secs_f64());
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, LbWire>, from: RankId, msg: LbWire) {
        let class = classify(&msg);
        let before = self.inner.stage();
        let t0 = Instant::now();
        self.inner.on_message(ctx, from, msg);
        let secs = t0.elapsed().as_secs_f64();
        self.ledger
            .charge(attribute(class, before, self.inner.stage()), secs);
    }

    fn on_quiescence(&mut self, ctx: &mut Ctx<'_, LbWire>) {
        self.inner.on_quiescence(ctx);
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn faultable(msg: &LbWire) -> bool {
        LbRank::faultable(msg)
    }

    fn corrupted(msg: &LbWire) -> Option<LbWire> {
        LbRank::corrupted(msg)
    }
}

/// One distributed LB call: its input and protocol settings.
#[derive(Clone, Debug)]
pub struct LbCall {
    /// The placement and loads to balance.
    pub dist: Distribution,
    /// Protocol configuration.
    pub cfg: LbProtocolConfig,
    /// Simulated network latency model.
    pub model: NetworkModel,
    /// Protocol randomness.
    pub factory: RngFactory,
    /// Network faults (none for fault-free workloads).
    pub plan: FaultPlan,
}

impl LbCall {
    /// Whether the call runs on a fault-free network.
    pub fn fault_free(&self) -> bool {
        self.plan.is_zero()
    }

    /// Run through the public entry point, untraced.
    pub fn run(&self) -> DistLbResult {
        run_distributed_lb_with_faults(
            &self.dist,
            self.cfg,
            self.model,
            &self.factory,
            self.plan.clone(),
        )
    }

    /// Run on [`Simulator`] with every rank wrapped in [`Timed`].
    /// Returns the result (assembled as the public entry point does, but
    /// without asserting: the benchmark's checks judge it), the merged
    /// ledger, and the wall seconds of `Simulator::run`.
    pub fn run_traced(&self) -> (DistLbResult, Ledger, f64) {
        let n = self.dist.num_ranks();
        let ranks: Vec<Timed> = self
            .dist
            .rank_ids()
            .map(|r| {
                let tasks = self
                    .dist
                    .tasks_on(r)
                    .iter()
                    .map(|t| (t.id, t.load.get()))
                    .collect();
                Timed::new(LbRank::new(r, n, tasks, self.cfg, self.factory))
            })
            .collect();
        let mut sim = Simulator::new(ranks, self.model, &self.factory);
        sim.set_fault_plan(self.plan.clone());
        let t0 = Instant::now();
        let report = sim.run();
        let run_s = t0.elapsed().as_secs_f64();
        let mut ledger = Ledger::default();
        let ranks: Vec<LbRank> = sim
            .into_ranks()
            .into_iter()
            .map(|t| {
                ledger.merge(&t.ledger);
                t.inner
            })
            .collect();
        (assemble(&ranks, report), ledger, run_s)
    }
}

/// Collapse finished ranks into a [`DistLbResult`] the way the public
/// entry point does: unfinished ranks are skipped, the first claim on a
/// task wins, and records come from a rank that finished normally.
fn assemble(ranks: &[LbRank], report: tempered_runtime::SimReport) -> DistLbResult {
    let mut reliable = ReliableStats::default();
    let mut out = Distribution::new(ranks.len());
    let mut tasks_migrated = 0;
    for (p, r) in ranks.iter().enumerate() {
        reliable.merge(&r.reliable_stats());
        if !r.finished() {
            continue;
        }
        for t in r.final_tasks() {
            // A duplicate claim is left out here and shows up as a
            // conservation failure in the benchmark's checks.
            let _ = out.insert(RankId::from(p), Task::new(t.id, t.load));
        }
        tasks_migrated += r.migrations_in();
    }
    let reporter = ranks
        .iter()
        .position(|r| r.finished() && !r.degraded() && !r.parked())
        .or_else(|| ranks.iter().position(|r| r.finished() && !r.degraded()))
        .unwrap_or(0);
    DistLbResult {
        initial_imbalance: ranks[reporter].initial_imbalance(),
        final_imbalance: out.imbalance(),
        tasks_migrated,
        records: ranks[reporter].records().to_vec(),
        degraded_ranks: ranks.iter().filter(|r| r.degraded()).count(),
        parked_ranks: ranks.iter().filter(|r| r.parked()).count(),
        reliable,
        distribution: out,
        report,
    }
}
