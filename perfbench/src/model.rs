//! The modeled makespan of one round of a workload.

use tempered_core::distribution::Distribution;

/// Accumulates `modeled_makespan_s`: for every phase, the maximum rank
/// load of the placement the phase executed on, plus the simulated
/// protocol time of every LB call. The PIC workload adds its cost-model
/// terms (particle and field time per step, migration cost per call)
/// through [`Makespan::add`] instead of [`Makespan::phase`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Makespan {
    /// Modeled seconds so far.
    pub total_s: f64,
}

impl Makespan {
    /// A phase executed on `placement`: bulk-synchronous, so it lasts as
    /// long as its most loaded rank.
    pub fn phase(&mut self, placement: &Distribution) {
        self.total_s += placement.max_load().get();
    }

    /// An LB call whose protocol took `virtual_s` simulated seconds.
    pub fn lb(&mut self, virtual_s: f64) {
        self.total_s += virtual_s;
    }

    /// Any other modeled cost, in seconds.
    pub fn add(&mut self, secs: f64) {
        self.total_s += secs;
    }
}
