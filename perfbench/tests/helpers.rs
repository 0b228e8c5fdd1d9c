//! Tests of the benchmark's own helpers: the tail-percentile rule,
//! message-class attribution and the timing pass-through, the output
//! checks, and the modeled makespan.

use perfbench::checks::{check, Modeled};
use perfbench::layers::{attribute, classify, Class, LbCall};
use perfbench::model::Makespan;
use perfbench::stats::{best_of_repeats, beyond, median, percentile, tail};
use std::sync::Arc;
use tempered_core::distribution::Distribution;
use tempered_core::ids::{RankId, TaskId};
use tempered_core::rng::RngFactory;
use tempered_runtime::collective::LoadSummary;
use tempered_runtime::lb::{LbMsg, LbWire, Stage};
use tempered_runtime::termination::TdMsg;
use tempered_runtime::{FaultPlan, LbProtocolConfig, NetworkModel, RetryConfig};

fn ramp(n: usize) -> Vec<f64> {
    (0..n).map(|i| i as f64).collect()
}

#[test]
fn percentiles_interpolate_between_ranks() {
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(percentile(&ramp(11), 90), Some(9.0));
    assert_eq!(percentile(&[7.0], 99), Some(7.0));
    assert_eq!(median(&[]), None);
}

#[test]
fn tail_needs_ten_samples_beyond_it() {
    assert_eq!(beyond(100, 90), 10);
    assert_eq!(beyond(99, 90), 9);
    assert_eq!(beyond(1000, 99), 10);
    assert_eq!(tail(&ramp(99), 90), None);
    assert_eq!(tail(&ramp(100), 90), percentile(&ramp(100), 90));
    assert_eq!(tail(&ramp(999), 99), None);
    assert!(tail(&ramp(1000), 99).is_some());
}

#[test]
fn best_of_repeats_takes_each_calls_fastest_run() {
    let runs = vec![vec![3.0, 5.0, 2.0], vec![4.0, 1.0, 2.5], vec![2.0, 6.0]];
    // Only calls present in every run are kept.
    assert_eq!(best_of_repeats(&runs), vec![2.0, 1.0]);
    assert!(best_of_repeats(&[]).is_empty());
}

#[test]
fn frames_are_classified_by_layer() {
    let td = LbMsg::Td(TdMsg::Terminated { epoch: 1, sent: 0 });
    let gossip = LbMsg::Gossip {
        epoch: 1,
        round: 0,
        pairs: Arc::from(vec![(RankId(0), 1.0)]),
    };
    let reduce = LbMsg::ReduceUp {
        slot: 0,
        summary: LoadSummary {
            total: 1.0,
            max: 1.0,
            count: 1,
        },
    };
    let fetch = LbMsg::Fetch {
        epoch: 2,
        tasks: vec![TaskId(3)],
    };
    assert_eq!(classify(&LbWire::Raw(td.clone())), Class::Termination);
    assert_eq!(classify(&LbWire::Raw(gossip)), Class::Gossip);
    assert_eq!(classify(&LbWire::Raw(reduce)), Class::Collective);
    // Reliable data frames are charged to their payload's layer.
    assert_eq!(
        classify(&LbWire::Data { seq: 4, msg: td }),
        Class::Termination
    );
    assert_eq!(
        classify(&LbWire::Data { seq: 5, msg: fetch }),
        Class::Transfer
    );
    assert_eq!(classify(&LbWire::Raw(LbMsg::Knock)), Class::Membership);
    assert_eq!(classify(&LbWire::Ack { seq: 4 }), Class::Reliable);
    assert_eq!(
        classify(&LbWire::RetryTimer {
            to: RankId(1),
            seq: 4
        }),
        Class::Reliable
    );
    assert_eq!(classify(&LbWire::Heartbeat), Class::Health);
    assert_eq!(classify(&LbWire::HeartbeatTimer), Class::Health);
    assert_eq!(
        classify(&LbWire::StageTimer { stage_seq: 2 }),
        Class::Membership
    );
}

#[test]
fn a_stage_change_reclassifies_the_call() {
    assert_eq!(
        attribute(Class::Termination, Stage::Gossip, Stage::Proposals),
        Class::Stage
    );
    assert_eq!(
        attribute(Class::Collective, Stage::Evaluate, Stage::Gossip),
        Class::Stage
    );
    assert_eq!(
        attribute(Class::Gossip, Stage::Gossip, Stage::Gossip),
        Class::Gossip
    );
}

fn small_call(plan: FaultPlan) -> LbCall {
    let per_rank: Vec<Vec<f64>> = (0..16)
        .map(|r| if r < 2 { vec![1.0; 12] } else { Vec::new() })
        .collect();
    LbCall {
        dist: Distribution::from_loads(per_rank),
        cfg: LbProtocolConfig {
            trials: 2,
            iters: 2,
            ..Default::default()
        }
        .hardened(RetryConfig {
            stage_deadline: 30.0,
            ..Default::default()
        }),
        model: NetworkModel::default(),
        factory: RngFactory::new(7),
        plan,
    }
}

#[test]
fn the_timing_wrapper_passes_everything_through() {
    let lossy = FaultPlan {
        seed: 3,
        drop: 0.05,
        duplicate: 0.02,
        reorder: 0.05,
        reorder_factor: 4.0,
        ..FaultPlan::none()
    };
    for plan in [FaultPlan::none(), lossy] {
        let call = small_call(plan);
        let plain = call.run();
        assert_eq!(plain.report.faults.dropped > 0, !call.fault_free());
        let (traced, ledger, run_s) = call.run_traced();
        assert_eq!(Modeled::of(&traced), Modeled::of(&plain));
        // Every delivered event and every rank start is charged once.
        let charged: u64 = Class::ALL.iter().map(|&c| ledger.count(c)).sum();
        assert_eq!(charged, plain.report.events_delivered + 16);
        assert!(ledger.handler_s() <= run_s);
        assert!(ledger.count(Class::Stage) > 16);
        assert!(ledger.count(Class::Termination) > 0);
        assert!(ledger.count(Class::Reliable) > 0);
        assert_eq!(ledger.count(Class::Health), 0);
    }
}

#[test]
fn checks_catch_lost_and_altered_tasks() {
    let call = small_call(FaultPlan::none());
    let mut out = call.run();
    assert_eq!(check(&call.dist, &out, true), Ok(()));

    let mut altered = out.clone();
    let task = altered
        .distribution
        .rank_ids()
        .find_map(|r| altered.distribution.tasks_on(r).first().map(|t| t.id))
        .unwrap();
    altered
        .distribution
        .set_load(task, tempered_core::load::Load::new(2.0))
        .unwrap();
    assert!(check(&call.dist, &altered, true).is_err());

    let mut lost = Distribution::new(out.distribution.num_ranks());
    for r in out.distribution.rank_ids() {
        for t in out.distribution.tasks_on(r) {
            if t.id != task {
                lost.insert(r, *t).unwrap();
            }
        }
    }
    altered.distribution = lost;
    assert!(check(&call.dist, &altered, true).is_err());

    out.degraded_ranks = 1;
    assert!(check(&call.dist, &out, true).is_err());
    assert_eq!(check(&call.dist, &out, false), Ok(()));
}

#[test]
fn makespan_of_a_hand_computed_two_phase_input() {
    // Phase 1 runs on loads [3, 1] (max 3), then an LB call takes 0.25
    // simulated seconds; phase 2 runs on [2, 2.5] (max 2.5).
    let phase1 = Distribution::from_loads(vec![vec![2.0, 1.0], vec![1.0]]);
    let phase2 = Distribution::from_loads(vec![vec![2.0], vec![1.5, 1.0]]);
    let mut m = Makespan::default();
    m.phase(&phase1);
    m.lb(0.25);
    m.phase(&phase2);
    assert_eq!(m.total_s, 3.0 + 0.25 + 2.5);
    m.add(0.125);
    assert_eq!(m.total_s, 5.875);
}
