//! The benchmark's workloads. Each is generated from the seed alone and
//! runs in this process on the single-threaded simulator. See
//! `perfbench/README.md` for why each exists and which layers it
//! stresses or bypasses.

use crate::calls::Calls;
use crate::layers::LbCall;
use crate::model::Makespan;
use empire_pic::{BdotScenario, CostModel, EmpireSim, Mesh};
use std::time::Instant;
use tempered_core::distribution::Distribution;
use tempered_core::rng::{derive_seed, RngFactory};
use tempered_runtime::{FaultPlan, HealthConfig, LbProtocolConfig, NetworkModel, RetryConfig};
use tempered_svc::SvcScenario;

/// Workload names, in report order.
pub const NAMES: [&str; 4] = ["pic_timeline", "hotspot_2k", "svc_lossy", "crash_tolerant"];

/// What one round of a workload produced besides its LB calls.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Modeled makespan of the round.
    pub makespan: Makespan,
    /// Wall seconds of each `EmpireSim::step` (PIC only).
    pub step_s: Vec<f64>,
}

/// A workload: a fixed, seed-determined sequence of LB calls (a round)
/// that the benchmark repeats, plus the warm-up call of its set-up.
pub trait Workload {
    /// Ranks in every LB call.
    fn ranks(&self) -> usize;
    /// The set-up's warm-up call (its input generation included).
    fn warmup(&self) -> LbCall;
    /// Run one round, making every LB call through `calls`.
    fn round(&self, calls: &mut Calls) -> Round;
}

/// Build the named workload's inputs from `seed`.
pub fn build(name: &str, seed: u64) -> Option<Box<dyn Workload>> {
    Some(match name {
        "pic_timeline" => Box::new(Pic { seed }),
        "hotspot_2k" => Box::new(Static::new(2048, 2, hardened(), seed)),
        "svc_lossy" => Box::new(SvcLossy::new(seed)),
        "crash_tolerant" => Box::new(Static::new(
            256,
            4,
            hardened().crash_tolerant(HealthConfig::default()),
            seed,
        )),
        _ => return None,
    })
}

/// Per-call protocol randomness, keyed by the workload seed and the
/// call's position in the round.
fn factory(seed: u64, call: u64) -> RngFactory {
    RngFactory::new(derive_seed(seed, &[0xBE4C, call]))
}

/// The perf-baseline hardened configuration: TemperedLB (2 trials × 3
/// iterations, fanout 4, 5 rounds) over reliable delivery whose stage
/// deadline is far beyond any fault-free stall.
fn hardened() -> LbProtocolConfig {
    LbProtocolConfig {
        trials: 2,
        iters: 3,
        fanout: 4,
        rounds: 5,
        ..Default::default()
    }
    .hardened(RetryConfig {
        timeout: 200e-6,
        backoff: 1.5,
        max_retries: 30,
        stage_deadline: 30.0,
        ..Default::default()
    })
}

/// Hot-spot inputs balanced again and again: in each, the first eighth
/// of the ranks hold 40 tasks each and the rest none, with task loads
/// drawn from the seed as multiples of 1/16 in [1, 2). A round balances
/// each input once; the quality of a single call on a hot spot swings
/// with the seed, so a round averages over several inputs.
struct Static {
    inputs: Vec<LbCall>,
}

impl Static {
    fn new(ranks: usize, inputs: u64, cfg: LbProtocolConfig, seed: u64) -> Self {
        let hot = ranks as u64 / 8;
        let input = |k: u64| {
            let per_rank: Vec<Vec<f64>> = (0..ranks as u64)
                .map(|r| {
                    if r < hot {
                        (0..40)
                            .map(|t| 1.0 + (derive_seed(seed, &[k, r, t]) % 16) as f64 / 16.0)
                            .collect()
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            LbCall {
                dist: Distribution::from_loads(per_rank),
                cfg,
                model: NetworkModel::default(),
                factory: factory(seed, k),
                plan: FaultPlan::none(),
            }
        };
        Static {
            inputs: (0..inputs).map(input).collect(),
        }
    }
}

impl Workload for Static {
    fn ranks(&self) -> usize {
        self.inputs[0].dist.num_ranks()
    }

    fn warmup(&self) -> LbCall {
        self.inputs[0].clone()
    }

    fn round(&self, calls: &mut Calls) -> Round {
        let mut round = Round::default();
        for call in &self.inputs {
            let done = calls.lb(call);
            round.makespan.phase(&done.dist);
            round.makespan.lb(done.virtual_s);
        }
        round
    }
}

/// PIC timeline: 8×8 ranks × 24 colors.
const PIC_MESH: Mesh = Mesh {
    width: 1.0,
    height: 1.0,
    ranks_x: 8,
    ranks_y: 8,
    colors_x: 6,
    colors_y: 4,
    cells_per_color_edge: 8,
};
/// Application steps per round.
const PIC_STEPS: usize = 600;
/// Steps between LB calls.
const PIC_LB_PERIOD: usize = 4;

/// The paper's use case: the EMPIRE B-dot surrogate, balanced every few
/// steps by TemperedLB (4 trials × 8 iterations) on the default
/// best-effort transport.
struct Pic {
    seed: u64,
}

impl Pic {
    fn scenario() -> BdotScenario {
        BdotScenario {
            mesh: PIC_MESH,
            steps: PIC_STEPS,
            ..BdotScenario::paper_shape()
        }
    }

    fn call(&self, sim: &EmpireSim) -> LbCall {
        LbCall {
            dist: sim.distribution.clone(),
            cfg: LbProtocolConfig {
                trials: 4,
                iters: 8,
                ..Default::default()
            },
            model: NetworkModel::default(),
            factory: factory(self.seed, sim.current_step() as u64),
            plan: FaultPlan::none(),
        }
    }
}

impl Workload for Pic {
    fn ranks(&self) -> usize {
        PIC_MESH.num_ranks()
    }

    fn warmup(&self) -> LbCall {
        let mut sim = EmpireSim::new(Self::scenario(), CostModel::default(), self.seed);
        for _ in 0..PIC_LB_PERIOD {
            sim.step();
        }
        self.call(&sim)
    }

    fn round(&self, calls: &mut Calls) -> Round {
        let cost = CostModel::default();
        let mut sim = EmpireSim::new(Self::scenario(), cost, self.seed);
        let mut round = Round::default();
        for step in 1..=PIC_STEPS {
            let t0 = Instant::now();
            sim.step();
            round.step_s.push(t0.elapsed().as_secs_f64());
            round.makespan.add(
                sim.max_rank_particle_load() * cost.amt_particle_overhead
                    + sim.nonparticle_time_per_rank() * cost.amt_nonparticle_overhead,
            );
            if step % PIC_LB_PERIOD == 0 {
                let done = calls.lb(&self.call(&sim));
                sim.distribution = done.dist;
                round.makespan.lb(done.virtual_s);
                round
                    .makespan
                    .add(done.migrations as f64 * cost.per_migration);
            }
        }
        round
    }
}

/// Service phases per round (one diurnal period).
const SVC_PHASES: u64 = 24;

/// A diurnal service at 128 ranks × 16 shards, balanced after every
/// phase by the hardened protocol over a lossy network.
struct SvcLossy {
    sc: SvcScenario,
    seed: u64,
}

impl SvcLossy {
    fn new(seed: u64) -> Self {
        SvcLossy {
            sc: SvcScenario::diurnal(128, 16, SVC_PHASES as usize, seed),
            seed,
        }
    }

    fn call(&self, dist: &Distribution, phase: u64) -> LbCall {
        LbCall {
            dist: dist.clone(),
            cfg: hardened(),
            model: NetworkModel::default(),
            factory: factory(self.seed, phase),
            plan: FaultPlan {
                seed: derive_seed(self.seed, &[0xFA17, phase]),
                drop: 0.05,
                duplicate: 0.02,
                reorder: 0.05,
                reorder_factor: 4.0,
                ..FaultPlan::none()
            },
        }
    }
}

impl Workload for SvcLossy {
    fn ranks(&self) -> usize {
        self.sc.num_ranks
    }

    fn warmup(&self) -> LbCall {
        self.call(&self.sc.initial_distribution(), 0)
    }

    fn round(&self, calls: &mut Calls) -> Round {
        let mut round = Round::default();
        let mut dist = self.sc.initial_distribution();
        for phase in 0..SVC_PHASES {
            self.sc.apply_phase(&mut dist, phase);
            round.makespan.phase(&dist);
            if phase + 1 < SVC_PHASES {
                let done = calls.lb(&self.call(&dist, phase));
                dist = done.dist;
                round.makespan.lb(done.virtual_s);
            }
        }
        round
    }
}
