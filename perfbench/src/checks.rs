//! Output checks applied to every LB call, and the exact modeled
//! counters that identical calls must reproduce.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use tempered_core::distribution::Distribution;
use tempered_runtime::DistLbResult;

/// Every task of `dist` as `(task id, load bits)`, sorted: the id→load
/// multiset an LB call must conserve.
fn task_multiset(dist: &Distribution) -> Vec<(u64, u64)> {
    let mut tasks: Vec<(u64, u64)> = dist
        .rank_ids()
        .flat_map(|r| dist.tasks_on(r).iter())
        .map(|t| (t.id.as_u64(), t.load.get().to_bits()))
        .collect();
    tasks.sort_unstable();
    tasks
}

/// Every task of `dist` as `(task id, rank)`, sorted by task.
fn assignment(dist: &Distribution) -> Vec<(u64, usize)> {
    let mut placed: Vec<(u64, usize)> = dist
        .rank_ids()
        .flat_map(|r| {
            dist.tasks_on(r)
                .iter()
                .map(move |t| (t.id.as_u64(), r.as_usize()))
        })
        .collect();
    placed.sort_unstable();
    placed
}

/// Check one LB result against its input. Every result must conserve
/// the input's tasks on the same rank count; on a fault-free network
/// every rank must also complete the protocol without degrading or
/// parking.
pub fn check(input: &Distribution, out: &DistLbResult, fault_free: bool) -> Result<(), String> {
    if out.distribution.num_ranks() != input.num_ranks() {
        return Err(format!(
            "rank count changed: {} -> {}",
            input.num_ranks(),
            out.distribution.num_ranks()
        ));
    }
    if task_multiset(&out.distribution) != task_multiset(input) {
        return Err(format!(
            "tasks not conserved: {} in, {} out",
            input.num_tasks(),
            out.distribution.num_tasks()
        ));
    }
    if fault_free {
        if !out.report.completed {
            return Err("protocol did not complete on a fault-free network".into());
        }
        if out.degraded_ranks != 0 || out.parked_ranks != 0 {
            return Err(format!(
                "fault-free call left {} degraded and {} parked ranks",
                out.degraded_ranks, out.parked_ranks
            ));
        }
    }
    Ok(())
}

/// The exact modeled outcome of one LB call: protocol cost, quality,
/// delivery and fault counters, and a digest of the final assignment.
/// Two runs of the same call must produce equal values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Modeled {
    /// Events delivered by the simulator.
    pub events: u64,
    /// Network messages sent.
    pub messages: u64,
    /// Network payload bytes sent.
    pub bytes: u64,
    /// Simulated protocol makespan, as `f64` bits.
    pub virtual_s_bits: u64,
    /// Post-LB imbalance, as `f64` bits.
    pub final_imbalance_bits: u64,
    /// Tasks migrated at commit.
    pub migrations: usize,
    /// Degraded and parked ranks.
    pub degraded: (usize, usize),
    /// Reliable sent, retransmitted, acked, duplicates suppressed, gave up.
    pub reliable: [u64; 5],
    /// Messages dropped by fault injection.
    pub dropped: u64,
    /// Hash of the final `(task, rank)` assignment.
    pub assignment: u64,
}

impl Modeled {
    /// The modeled counters of `out`.
    pub fn of(out: &DistLbResult) -> Self {
        let mut h = DefaultHasher::new();
        assignment(&out.distribution).hash(&mut h);
        let rel = &out.reliable;
        Modeled {
            events: out.report.events_delivered,
            messages: out.report.network.messages,
            bytes: out.report.network.bytes,
            virtual_s_bits: out.report.finish_time.to_bits(),
            final_imbalance_bits: out.final_imbalance.to_bits(),
            migrations: out.tasks_migrated,
            degraded: (out.degraded_ranks, out.parked_ranks),
            reliable: [
                rel.sent,
                rel.retransmitted,
                rel.acked,
                rel.duplicates_suppressed,
                rel.gave_up,
            ],
            dropped: out.report.faults.dropped,
            assignment: h.finish(),
        }
    }

    /// Simulated protocol makespan in seconds.
    pub fn virtual_s(&self) -> f64 {
        f64::from_bits(self.virtual_s_bits)
    }

    /// Post-LB imbalance.
    pub fn final_imbalance(&self) -> f64 {
        f64::from_bits(self.final_imbalance_bits)
    }
}
