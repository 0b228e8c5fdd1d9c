//! The LB call executor: runs every call a workload makes, checks it,
//! and records what the report needs.

use crate::checks::{check, Modeled};
use crate::layers::{LbCall, Ledger};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use tempered_core::distribution::Distribution;
use tempered_core::gossip::GossipConfig;
use tempered_core::refine::{refine, RefineConfig};
use tempered_runtime::LbProtocolConfig;

/// The analysis-mode configuration running the same algorithm as `cfg`.
fn refine_config(cfg: &LbProtocolConfig) -> RefineConfig {
    RefineConfig {
        trials: cfg.trials,
        iters: cfg.iters,
        gossip: GossipConfig {
            fanout: cfg.fanout,
            rounds: cfg.rounds,
            ..GossipConfig::default()
        },
        transfer: cfg.transfer,
    }
}

/// What a workload continues with after an LB call.
#[derive(Clone, Debug)]
pub struct LbDone {
    /// The result's placement if it passed every check, else the input.
    pub dist: Distribution,
    /// Simulated protocol seconds the call took.
    pub virtual_s: f64,
    /// Tasks migrated by the placement returned.
    pub migrations: usize,
}

/// Executes and records LB calls.
///
/// Calls are grouped into named sequences (the set-up warm-up, and one
/// round of the workload). The first complete run of a sequence is its
/// reference: every later run of the same sequence makes the same calls
/// on the same inputs, so each call's [`Modeled`] counters must equal
/// the reference's exactly.
#[derive(Debug, Default)]
pub struct Calls {
    /// Also run every call wrapped in the timing pass-through.
    pub trace: bool,
    /// Whether calls are currently measured (false during set-up).
    pub measuring: bool,
    /// Calls attempted.
    pub attempted: u64,
    /// Calls whose result failed a check.
    pub failed: u64,
    /// One line per failure.
    pub failures: Vec<String>,
    /// Wall seconds of each measured call (untraced), one list per
    /// measured sequence run.
    pub wall_s: Vec<Vec<f64>>,
    /// Modeled counters of the reference run of each sequence.
    reference: HashMap<&'static str, Vec<Modeled>>,
    current: Option<(&'static str, Vec<Modeled>)>,
    /// Measured traced calls.
    pub traced: u64,
    /// Handler time per class over measured traced calls.
    pub ledger: Ledger,
    /// `Simulator::run` wall seconds over measured traced calls.
    pub sim_run_s: f64,
    /// Whole-call wall seconds over measured traced calls, untraced.
    pub untraced_s: f64,
    /// Whole-call wall seconds over measured traced calls, traced.
    pub traced_s: f64,
    /// Analysis-mode `refine` wall seconds on each measured input, one
    /// list per measured sequence run.
    pub refine_s: Vec<Vec<f64>>,
}

impl Calls {
    /// An executor that also traces every call when `trace` is set.
    pub fn new(trace: bool) -> Self {
        Calls {
            trace,
            ..Calls::default()
        }
    }

    /// Start a run of sequence `name`.
    pub fn begin(&mut self, name: &'static str) {
        self.current = Some((name, Vec::new()));
        if self.measuring {
            self.wall_s.push(Vec::new());
            self.refine_s.push(Vec::new());
        }
    }

    /// End the current sequence run; the first one becomes the reference.
    pub fn end(&mut self) {
        if let Some((name, run)) = self.current.take() {
            if let Some(reference) = self.reference.get(name) {
                if reference.len() != run.len() {
                    self.fail(format!(
                        "{name}: {} calls, reference made {}",
                        run.len(),
                        reference.len()
                    ));
                }
            } else {
                self.reference.insert(name, run);
            }
        }
    }

    /// The modeled counters of the reference run of `name`.
    pub fn reference(&self, name: &str) -> &[Modeled] {
        self.reference.get(name).map_or(&[], Vec::as_slice)
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// Run one LB call and check it. The workload continues with the
    /// result when it passed every check, else with the input unchanged.
    /// A panic inside the program counts as a failed call.
    pub fn lb(&mut self, call: &LbCall) -> LbDone {
        self.attempted += 1;
        let t0 = Instant::now();
        let out = catch_unwind(AssertUnwindSafe(|| call.run()));
        let wall = t0.elapsed().as_secs_f64();
        let out = match out {
            Ok(out) => out,
            Err(_) => {
                self.fail("LB call panicked".into());
                return LbDone {
                    dist: call.dist.clone(),
                    virtual_s: 0.0,
                    migrations: 0,
                };
            }
        };
        let mut verdict = check(&call.dist, &out, call.fault_free());
        let modeled = Modeled::of(&out);
        let virtual_s = modeled.virtual_s();
        if self.trace {
            verdict = verdict.and(self.trace_call(call, &modeled, wall));
        }
        if let Some((name, run)) = &mut self.current {
            let i = run.len();
            if let Some(want) = self.reference.get(*name).and_then(|r| r.get(i)) {
                if *want != modeled && verdict.is_ok() {
                    verdict = Err(format!(
                        "{name} call {i}: modeled counters differ on repeat"
                    ));
                }
            }
            run.push(modeled);
        }
        if let (true, Some(walls)) = (self.measuring, self.wall_s.last_mut()) {
            walls.push(wall);
        }
        match verdict {
            Ok(()) => LbDone {
                dist: out.distribution,
                virtual_s,
                migrations: out.tasks_migrated,
            },
            Err(why) => {
                self.fail(why);
                LbDone {
                    dist: call.dist.clone(),
                    virtual_s,
                    migrations: 0,
                }
            }
        }
    }

    /// Re-run `call` through the timing wrapper and check that it passes
    /// everything through: same modeled counters as the untraced run.
    fn trace_call(&mut self, call: &LbCall, untraced: &Modeled, wall: f64) -> Result<(), String> {
        let t0 = Instant::now();
        let traced = catch_unwind(AssertUnwindSafe(|| call.run_traced()));
        let traced_wall = t0.elapsed().as_secs_f64();
        let Ok((out, ledger, run_s)) = traced else {
            return Err("traced LB call panicked".into());
        };
        if Modeled::of(&out) != *untraced {
            return Err("timing wrapper changed the run's modeled counters".into());
        }
        if self.measuring {
            self.traced += 1;
            self.ledger.merge(&ledger);
            self.sim_run_s += run_s;
            self.untraced_s += wall;
            self.traced_s += traced_wall;
            let cfg = refine_config(&call.cfg);
            let t0 = Instant::now();
            refine(&call.dist, &cfg, &call.factory, 0);
            if let Some(r) = self.refine_s.last_mut() {
                r.push(t0.elapsed().as_secs_f64());
            }
        }
        Ok(())
    }
}
