//! Differential oracle for the Session's incremental admission loops.
//!
//! [`Session::run`](mint_memsys::Session::run) admits through an
//! incremental arrival structure over the [`System`] readiness cache: a
//! binary min-heap of `(issue_ps, core)` keys on one channel, an ordered
//! set with per-request cached routes across channels. This suite keeps
//! the original rule as a test-local reference, driven through the same
//! public `System` calls: re-collect and re-sort every pending arrival
//! per decision, route at admission time, admit the earliest request
//! whose routed channel can take it, and otherwise serve the
//! earliest-ready channel. The reference cores pull one request per
//! fetch, so it also checks the session's batched
//! [`RequestSource::refill`] rings end to end.
//!
//! Identical random multi-core, multi-channel scenarios — across core
//! counts, channel counts, queue depths, the whole scheme zoo, policies
//! and per-core workload mixes — run through both with the event log
//! captured, and the full [`RunReport`]s must be equal. Event equality is
//! the stepwise evidence: every admitted request lands in its channel's
//! bounded queue in arrival order, so a single transposed admission
//! reorders the executed ACT/PRE/CAS stream (and shifts its picosecond
//! timestamps) long before it would show up in aggregate counters. Any
//! divergence prints the deterministic case index that replays it
//! exactly (see `mint_exp::prop`).

use mint_exp::prop::{forall, u32_in, u64_in, usize_in};
use mint_memsys::{
    saturation_spec, spec_rate_workloads, AddressDecoder, AddressMapping, CoreOutcome, CoreStream,
    EnergyModel, MitigationScheme, NormalizedPerf, Request, RequestSource, RunReport,
    SchedulePolicy, Sim, System, SystemConfig, WorkloadSpec,
};
use mint_rng::derive_seed;

/// One core of the reference loop.
struct Core {
    source: CoreStream,
    /// Next request and its issue time.
    pending: Option<(Request, u64)>,
    ready_at: u64,
    remaining: u32,
    finish: u64,
    serviced: u64,
}

impl Core {
    /// Pulls one request (within the budget) and stamps its issue time.
    fn fetch(&mut self) {
        if self.remaining == 0 {
            return;
        }
        self.remaining -= 1;
        self.pending = self
            .source
            .next_request_at(self.ready_at)
            .map(|req| (req, self.ready_at + req.think_time_ps));
    }
}

/// The sorted-vec reference run of a workload cell, reported in the
/// shape `Sim::run` reports with events captured.
fn reference_run(
    cfg: SystemConfig,
    scheme: MitigationScheme,
    policy: SchedulePolicy,
    specs: &[WorkloadSpec],
    requests_per_core: u32,
    seed: u64,
) -> RunReport {
    let mapping = AddressMapping::default();
    let mut system = System::new(cfg, scheme, policy, mapping, seed);
    system.enable_event_log();
    let decoder = AddressDecoder::new(&cfg, mapping);
    let mut cores: Vec<Core> = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let mut core = Core {
                source: CoreStream::new(
                    *spec,
                    decoder,
                    spec.think_time_ps(&cfg),
                    derive_seed(seed, i as u64),
                ),
                pending: None,
                ready_at: 0,
                remaining: requests_per_core,
                finish: 0,
                serviced: 0,
            };
            core.fetch();
            core
        })
        .collect();
    let mlp = u64::from(cfg.core_mlp).max(1);
    let mut events = Vec::new();
    let mut arrivals: Vec<(u64, usize)> = Vec::with_capacity(cores.len());
    loop {
        arrivals.clear();
        arrivals.extend(
            cores
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.pending.map(|(_, issue)| (issue, i))),
        );
        arrivals.sort_unstable();
        // A blocked channel is never empty, so when nothing is admissible
        // the service arm below makes progress towards unblocking it.
        let admitted = arrivals.iter().find_map(|&(issue, i)| {
            let (req, _) = cores[i].pending.expect("pending arrival");
            let ch = system.route(req.addr);
            system.admissible(ch, issue).then_some((i, ch))
        });
        if let Some((i, ch)) = admitted {
            let (req, issue) = cores[i].pending.take().expect("pending arrival");
            system.push_to(ch, req, i as u32, issue);
            continue;
        }
        let Some(ch) = system.earliest_ready() else {
            break;
        };
        let c = system
            .service_channel(ch)
            .expect("earliest-ready channel is non-empty");
        events.extend(system.drain_events_global(ch));
        // Blocking-miss core absorbing 1/MLP of the memory stall.
        let core = &mut cores[c.core as usize];
        core.ready_at = c.arrival_ps + (c.completion_ps - c.arrival_ps) / mlp;
        core.finish = core.finish.max(c.completion_ps);
        core.serviced += 1;
        core.fetch();
    }
    let duration = cores.iter().map(|c| c.finish).max().unwrap_or(0);
    system.finish(duration);
    let result = system.result();
    let with_hw = !matches!(scheme, MitigationScheme::Baseline);
    RunReport {
        perf: NormalizedPerf {
            duration_ps: duration,
            result,
            normalized: 1.0,
        },
        cores: cores
            .iter()
            .map(|c| CoreOutcome {
                finish_ps: c.finish,
                requests: c.serviced,
            })
            .collect(),
        energy: EnergyModel::ddr5_default().energy(&result, duration, with_hw),
        events,
        telemetry: None,
    }
}

#[test]
fn heap_admission_matches_sorted_vec_reference_stepwise() {
    let schemes = MitigationScheme::zoo();
    let policies = [SchedulePolicy::Fcfs, SchedulePolicy::frfcfs()];
    // The saturate stream joins the SPEC pool so some cores run with
    // zero think time — arrival ties and full queues are exactly where
    // the two admission loops could disagree.
    let mut pool = spec_rate_workloads();
    pool.push(saturation_spec());
    forall(24, 0xAD3155, |case, rng| {
        let cores = u32_in(rng, 1, 9);
        let channels = 1u32 << usize_in(rng, 0, 3);
        let cfg = SystemConfig {
            cores,
            channels,
            // Shallow queues force admission stalls; deep ones keep
            // every arrival admissible immediately. Stress both.
            queue_depth: u32_in(rng, 1, 33),
            ..SystemConfig::table6()
        };
        let scheme = schemes[usize_in(rng, 0, schemes.len())];
        let policy = policies[usize_in(rng, 0, policies.len())];
        let specs: Vec<WorkloadSpec> = (0..cores)
            .map(|_| pool[usize_in(rng, 0, pool.len())])
            .collect();
        let requests_per_core = u32_in(rng, 50, 400);
        let seed = u64_in(rng, 0, u64::MAX);
        let session = Sim::new(cfg)
            .scheme(scheme)
            .policy(policy)
            .workload(&specs, requests_per_core)
            .seed(seed)
            .capture_events()
            .run();
        let reference = reference_run(cfg, scheme, policy, &specs, requests_per_core, seed);
        assert!(
            !session.events.is_empty(),
            "case {case}: event capture must be on for stepwise evidence"
        );
        assert_eq!(
            session,
            reference,
            "case {case}: session admission diverged from the sorted-vec reference \
             (cores {cores}, channels {channels}, depth {}, {} on {})",
            cfg.queue_depth,
            scheme.label(),
            policy.label(),
        );
    });
}
