//! Differential determinism: warm-started trials are indistinguishable
//! from cold-booted ones, and the stepper fast path (pooled programs +
//! batched stepping) is indistinguishable from the per-step reference.
//!
//! The warm-start engine clones a cached post-boot template and re-derives
//! all RNG state from the trial seed. These properties pin the claim that
//! this changes *nothing*: across seeds, setups and fault types, the full
//! [`TrialResult`] — injection outcome, observations, recovery report
//! (every step, latency and repair count), final classification and step
//! count — is equal to what a cold boot produces.
//!
//! The second family pins the stepper fast path the same way:
//! [`run_trial_on`] (batched stepping, pooled program buffers) against
//! [`run_trial_on_unbatched`] with pooling disabled (one checked `step_any`
//! per iteration, fresh `Vec` per hypervisor entry — the pre-optimisation
//! stepper, kept at runtime exactly for this comparison).

use nlh_campaign::{
    build_system, run_trial, run_trial_on, run_trial_on_unbatched, run_trial_warm, BenchKind,
    BootCache, SetupKind, TrialConfig,
};
use nlh_core::{Enhancements, Microreboot, Microreset, RecoveryMechanism};
use nlh_hv::domain::{GuestNotice, GuestOp, GuestProgram, WorkloadVerdict};
use nlh_hv::hypercalls::HcRequest;
use nlh_hv::interrupts::VEC_NET;
use nlh_hv::{CpuId, MachineConfig};
use nlh_inject::FaultType;
use nlh_sim::{Pcg64, SimTime};
use proptest::prelude::*;

fn setups() -> impl Strategy<Value = SetupKind> {
    prop_oneof![
        Just(SetupKind::OneAppVm(BenchKind::UnixBench)),
        Just(SetupKind::OneAppVm(BenchKind::BlkBench)),
        Just(SetupKind::OneAppVm(BenchKind::NetBench)),
        Just(SetupKind::ThreeAppVm),
        Just(SetupKind::TwoAppVmSharedCpu),
        // Credit-mode overcommit: the scheduler datapath (preemption
        // switches, WFI blocking, migrations) must be bit-identical under
        // batched/pooled stepping and warm starts too.
        Just(SetupKind::Overcommit(2)),
        Just(SetupKind::Overcommit(4)),
        // Virtio vswitch: descriptor-ring handlers and guest-to-guest
        // forwarding must survive superop fusion bit-for-bit too.
        Just(SetupKind::TwoAppVmVswitch),
    ]
}

fn faults() -> impl Strategy<Value = FaultType> {
    prop_oneof![
        Just(FaultType::Failstop),
        Just(FaultType::Register),
        Just(FaultType::Code),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// NiLiHype trials: warm == cold, bit for bit, across the whole
    /// configuration space.
    #[test]
    fn warm_equals_cold_nilihype(seed in 0u64..100_000, setup in setups(), fault in faults()) {
        let cache = BootCache::new();
        let mech = Microreset::nilihype();
        let cfg = TrialConfig::new(setup, fault, seed);
        let cold = run_trial(&cfg, &mech);
        let warm = run_trial_warm(&cfg, &mech, &cache);
        prop_assert_eq!(cold, warm);
    }

    /// The equivalence holds for ReHype and for crippled mechanisms too —
    /// it is a property of the boot path, not of any one recovery flavor.
    #[test]
    fn warm_equals_cold_other_mechanisms(seed in 0u64..100_000, pick in 0u8..2) {
        let cache = BootCache::new();
        let mech: Box<dyn RecoveryMechanism> = match pick {
            0 => Box::new(Microreboot::rehype()),
            _ => Box::new(Microreset::with_enhancements(Enhancements::none())),
        };
        let cfg = TrialConfig::new(
            SetupKind::OneAppVm(BenchKind::UnixBench),
            FaultType::Failstop,
            seed,
        );
        let cold = run_trial(&cfg, mech.as_ref());
        let warm = run_trial_warm(&cfg, mech.as_ref(), &cache);
        prop_assert_eq!(cold, warm);
    }

    /// A single cache checked out repeatedly stays pristine: later
    /// checkouts are unaffected by earlier trials having run (and mutated)
    /// their clones.
    #[test]
    fn cache_reuse_does_not_leak_state(seed in 0u64..100_000) {
        let cache = BootCache::new();
        let mech = Microreset::nilihype();
        let cfg = TrialConfig::new(
            SetupKind::OneAppVm(BenchKind::UnixBench),
            FaultType::Register,
            seed,
        );
        let first = run_trial_warm(&cfg, &mech, &cache);
        let second = run_trial_warm(&cfg, &mech, &cache);
        prop_assert_eq!(first, second);
    }

    /// Stepper fast path == reference stepper, bit for bit. The fast side
    /// runs batched stepping with pooled program buffers; the reference
    /// side steps one checked micro-op at a time with pooling off (fresh
    /// allocation per hypervisor entry). `TrialResult::steps` participates
    /// in the equality, so the two must execute identical step sequences —
    /// not merely reach the same classification.
    #[test]
    fn batched_pooled_equals_reference_stepper(
        seed in 0u64..100_000,
        setup in setups(),
        fault in faults(),
    ) {
        let mech = Microreset::nilihype();
        let cfg = TrialConfig::new(setup, fault, seed);
        let (fast_hv, layout) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        let (mut ref_hv, _) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        ref_hv.pooling = false;
        let fast = run_trial_on(fast_hv, &layout, &cfg, &mech);
        let reference = run_trial_on_unbatched(ref_hv, &layout, &cfg, &mech);
        prop_assert_eq!(fast, reference);
    }

    /// Superop dispatch three ways: fused (superops on, the default),
    /// unfused batched (superops off — every micro-op through the single
    /// dispatch), and the per-step reference loop, all producing the same
    /// full [`TrialResult`] across every setup family (including credit
    /// overcommit and the virtio vswitch) and fault type. `steps`
    /// participates in the equality, so fused runs, bulk idle windows and
    /// the batched counting window must execute — and count — the exact
    /// reference step sequence.
    #[test]
    fn superops_equal_unfused_and_reference(
        seed in 0u64..100_000,
        setup in setups(),
        fault in faults(),
    ) {
        let mech = Microreset::nilihype();
        let cfg = TrialConfig::new(setup, fault, seed);
        let (fused_hv, layout) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        let (mut plain_hv, _) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        plain_hv.superops = false;
        let (mut ref_hv, _) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        ref_hv.superops = false;
        ref_hv.pooling = false;
        let fused = run_trial_on(fused_hv, &layout, &cfg, &mech);
        let plain = run_trial_on(plain_hv, &layout, &cfg, &mech);
        let reference = run_trial_on_unbatched(ref_hv, &layout, &cfg, &mech);
        prop_assert_eq!(&fused, &plain);
        prop_assert_eq!(fused, reference);
    }

    /// Same comparison at the hypervisor level with tracing wide open:
    /// batched + pooled stepping must leave identical traces, per-CPU
    /// clocks and step counts as unbatched + fresh-allocation stepping.
    /// (Trial loops never see intermediate states, so this closes the gap:
    /// the fast path may not even *transiently* diverge in anything the
    /// trace ring can observe.)
    #[test]
    fn batched_stepping_traces_identically(seed in 0u64..100_000, pick in 0u8..3) {
        use nlh_sim::trace::{TraceLevel, TraceRing};
        let setup = match pick {
            0 => SetupKind::OneAppVm(BenchKind::UnixBench),
            1 => SetupKind::ThreeAppVm,
            _ => SetupKind::TwoAppVmSharedCpu,
        };
        let cfg = TrialConfig::new(setup, FaultType::Failstop, seed);
        let (mut fast, _) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        let (mut slow, _) = build_system(cfg.machine.clone(), cfg.setup, cfg.seed);
        fast.trace = TraceRing::new(4096, TraceLevel::Debug);
        slow.trace = TraceRing::new(4096, TraceLevel::Debug);
        slow.pooling = false;
        let deadline = fast.now() + nlh_sim::SimDuration::from_millis(40);
        fast.run_until(deadline);
        slow.run_until_unbatched(deadline);
        prop_assert_eq!(fast.steps_executed(), slow.steps_executed());
        prop_assert_eq!(fast.now(), slow.now());
        prop_assert_eq!(fast.now_max(), slow.now_max());
        prop_assert_eq!(fast.trace.dump(), slow.trace.dump());
    }
}

/// Wraps a domain's workload so it rewrites the net vector's I/O APIC
/// route at set times (a dom0 `physdev` op), passing everything else
/// through — the hypercall's own completion notice is swallowed, so the
/// wrapped workload never sees a request it did not make.
#[derive(Debug, Clone)]
struct Rerouting {
    inner: Box<dyn GuestProgram>,
    /// Pending reroutes, earliest first.
    routes: Vec<(SimTime, CpuId)>,
    awaiting: bool,
}

impl GuestProgram for Rerouting {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn next_op(&mut self, now: SimTime, rng: &mut Pcg64) -> GuestOp {
        if let Some(&(at, cpu)) = self.routes.first() {
            if now >= at {
                self.routes.remove(0);
                self.awaiting = true;
                return GuestOp::Hypercall(HcRequest::PhysdevRoute(VEC_NET, cpu));
            }
        }
        self.inner.next_op(now, rng)
    }
    fn notice(&mut self, now: SimTime, notice: GuestNotice) {
        if self.awaiting && matches!(notice, GuestNotice::HypercallDone { .. }) {
            self.awaiting = false;
            return;
        }
        self.inner.notice(now, notice);
    }
    fn verdict(&self, now: SimTime, deadline: SimTime) -> WorkloadVerdict {
        self.inner.verdict(now, deadline)
    }
    fn clone_box(&self) -> Box<dyn GuestProgram> {
        Box::new(self.clone())
    }
}

/// `Hypervisor::run_until` (per-CPU check horizons, fused runs, idle
/// fast-forward) against `run_until_unbatched` (every step fully checked)
/// on 3AppVM inside the campaigns' verdict window, with NetBench's packet
/// stream routed and the route rewritten mid-window: dom0 moves the net
/// vector to the idle CPU 3, then to UnixBench's CPU 1, then back to
/// NetBench's CPU 2. Each rewrite is a micro-op inside a batched run (the
/// `horizon_dirty` case): a packet time that was irrelevant to the new
/// CPU's horizon becomes its next check. Digests and step counts must
/// agree at every checkpoint.
#[test]
fn per_cpu_horizons_match_reference_across_net_reroutes() {
    let (mut hv, _) = build_system(MachineConfig::small(), SetupKind::ThreeAppVm, 2018);
    hv.run_until(SimTime::from_secs(6));
    let dom0 = &mut hv.domains[0];
    let inner = dom0.program.take().expect("dom0 runs the PrivVM driver");
    dom0.program = Some(Box::new(Rerouting {
        inner,
        routes: vec![
            (SimTime::from_millis(6_150), CpuId(3)),
            (SimTime::from_millis(6_450), CpuId(1)),
            (SimTime::from_millis(6_750), CpuId(2)),
        ],
        awaiting: false,
    }));
    let mut batched = hv.clone();
    let mut reference = hv;
    let mut routes = Vec::new();
    let sent0 = batched.net.as_ref().map(|n| n.seq);
    for k in 1..=12u64 {
        let t = SimTime::from_millis(6_000 + 100 * k);
        batched.run_until(t);
        reference.run_until_unbatched(t);
        assert!(batched.detection().is_none(), "{:?}", batched.detection());
        assert_eq!(
            batched.steps_executed(),
            reference.steps_executed(),
            "steps at {t}"
        );
        assert_eq!(
            batched.state_digest(),
            reference.state_digest(),
            "digest at {t}"
        );
        routes.push(batched.irqs.ioapic_route(VEC_NET));
    }
    for cpu in [3, 1] {
        assert!(
            routes.contains(&Some(CpuId(cpu))),
            "net vector never routed to cpu{cpu}: {routes:?}"
        );
    }
    assert_eq!(routes.last(), Some(&Some(CpuId(2))));
    assert_ne!(
        batched.net.as_ref().map(|n| n.seq),
        sent0,
        "packets were generated in the window"
    );
    assert!(
        batched.checked_steps() < reference.checked_steps(),
        "the batched side must actually have skipped checks"
    );
}
