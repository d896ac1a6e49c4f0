//! Differential oracle for the scheduler's incremental planner.
//!
//! The channel keeps two planning implementations: the incremental
//! default (cached earliest-starts with dirty-bit invalidation, plan
//! adoption on push, seed-hinted arbitration) and the original scratch
//! planner, retained verbatim as the reference
//! (`Channel::set_reference_planner`). This suite drives **two channels
//! through identical random push/service interleavings** — one per
//! planner — across policies, the whole scheme zoo, mappings and queue
//! depths, and asserts they agree at every observable step: the
//! admission lookahead (`next_start_ps`), every [`Completion`] field,
//! and the final [`SimResult`]. Any divergence prints the deterministic
//! case index that replays it exactly (see `mint_exp::prop`).

use mint_exp::prop::{forall, u64_in, usize_in};
use mint_memsys::{
    AddressMapping, Channel, MitigationScheme, Request, SchedulePolicy, SystemConfig,
};
use mint_rng::Rng64;

/// A random LLC-miss request: cache-line aligned address in a 16 GiB
/// window, mixed reads/writes, no think time (arrival is explicit).
fn random_request(rng: &mut impl Rng64) -> Request {
    Request {
        addr: u64_in(rng, 0, 1 << 34) & !63,
        is_read: rng.gen_bool(0.7),
        think_time_ps: 0,
    }
}

#[test]
fn incremental_planner_matches_scratch_reference_stepwise() {
    let policies = [SchedulePolicy::Fcfs, SchedulePolicy::frfcfs()];
    let schemes = MitigationScheme::zoo();
    let mappings = [
        AddressMapping::RoBaRaCoCh,
        AddressMapping::RoCoRaBaCh,
        AddressMapping::ChRaBaRoCo,
    ];
    let depths = [2u32, 4, 8, 32];

    forall(48, 0x04AC1E, |case, rng| {
        let policy = policies[usize_in(rng, 0, policies.len())];
        let scheme = schemes[usize_in(rng, 0, schemes.len())];
        let mapping = mappings[usize_in(rng, 0, mappings.len())];
        let cfg = SystemConfig {
            queue_depth: depths[usize_in(rng, 0, depths.len())],
            ..SystemConfig::table6()
        };
        let seed = u64_in(rng, 0, u64::MAX - 1);
        let mut inc = Channel::new(cfg, scheme, policy, mapping, seed);
        let mut refc = Channel::new(cfg, scheme, policy, mapping, seed);
        refc.set_reference_planner(true);

        let ctx = format!(
            "case {case}: {} {} {mapping:?} depth {}",
            scheme.label(),
            policy.label(),
            cfg.queue_depth
        );
        let mut arrival = 0u64;
        let mut serviced = 0u32;
        for step in 0..600 {
            // Bias toward pushing (bursty arrivals keep the queue deep,
            // which is where arbitration actually has choices), service
            // when full — and occasionally when non-empty, so the clock
            // interleaves with arrivals in both directions.
            let push = inc.has_room() && (inc.pending() == 0 || rng.gen_bool(0.7));
            if push {
                // Arrivals move forward in bursts: often simultaneous,
                // sometimes jumping past the current backlog.
                arrival += u64_in(rng, 0, 4_000);
                let req = random_request(rng);
                inc.push(req, serviced % 4, arrival);
                refc.push(req, serviced % 4, arrival);
            } else {
                let a = inc.service_next();
                let b = refc.service_next();
                assert_eq!(a, b, "{ctx}, step {step}: completions diverge");
                serviced += 1;
            }
            assert_eq!(
                inc.next_start_ps(),
                refc.next_start_ps(),
                "{ctx}, step {step}: admission lookahead diverges"
            );
        }
        while inc.pending() > 0 {
            assert_eq!(
                inc.service_next(),
                refc.service_next(),
                "{ctx}: drain completions diverge"
            );
        }
        assert!(
            refc.service_next().is_none(),
            "{ctx}: queue lengths diverge"
        );
        let end = arrival + 1;
        inc.finish(end);
        refc.finish(end);
        assert_eq!(inc.result(), refc.result(), "{ctx}: final stats diverge");
        assert!(
            inc.plans_computed() <= refc.plans_computed(),
            "{ctx}: the incremental planner must never plan more often \
             ({} vs {})",
            inc.plans_computed(),
            refc.plans_computed()
        );
    });
}
