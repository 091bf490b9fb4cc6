//! Property-based tests of the hypervisor substrate's core data structures.

use nlh_hv::locks::{AcquireOutcome, LockPlacement, LockRegistry};
use nlh_hv::mem::{PageFrameTable, PageMarks, PageState};
use nlh_hv::sched::Scheduler;
use nlh_hv::timers::{TimerEvent, TimerEventKind, TimerSubsystem};
use nlh_sim::{CpuId, DomId, PageNum, SimDuration, SimTime, VcpuId};
use proptest::prelude::*;

/// Abstract page-frame operations for sequence testing.
#[derive(Debug, Clone, Copy)]
enum PfOp {
    Alloc,
    Free(u8),
    IncRef(u8),
    DecRef(u8),
    Validate(u8),
    Invalidate(u8),
    Scan,
}

fn pf_op_strategy() -> impl Strategy<Value = PfOp> {
    prop_oneof![
        Just(PfOp::Alloc),
        any::<u8>().prop_map(PfOp::Free),
        any::<u8>().prop_map(PfOp::IncRef),
        any::<u8>().prop_map(PfOp::DecRef),
        any::<u8>().prop_map(PfOp::Validate),
        any::<u8>().prop_map(PfOp::Invalidate),
        Just(PfOp::Scan),
    ]
}

proptest! {
    /// Whatever sequence of operations runs, the page-frame table's global
    /// accounting stays intact: free + live = total, and a scan always
    /// drives the inconsistency count to zero.
    #[test]
    fn page_frame_table_accounting_holds(ops in prop::collection::vec(pf_op_strategy(), 0..200)) {
        let total = 64usize;
        let mut pft = PageFrameTable::new(total);
        let mut live: Vec<PageNum> = Vec::new();
        for op in ops {
            match op {
                PfOp::Alloc => {
                    if let Ok(p) = pft.alloc(Some(DomId(1)), PageState::DomainOwned) {
                        prop_assert!(!live.contains(&p), "double allocation of {p}");
                        live.push(p);
                    }
                }
                PfOp::Free(i) => {
                    if !live.is_empty() {
                        let idx = i as usize % live.len();
                        let p = live[idx];
                        // Only clean pages can be freed; emulate the real
                        // caller by clearing first.
                        let d = pft.get(p).unwrap();
                        if d.use_count == 0 && !d.validated {
                            pft.free(p).unwrap();
                            live.swap_remove(idx);
                        }
                    }
                }
                PfOp::IncRef(i) => {
                    if !live.is_empty() {
                        let p = live[i as usize % live.len()];
                        pft.inc_ref(p).unwrap();
                    }
                }
                PfOp::DecRef(i) => {
                    if !live.is_empty() {
                        let p = live[i as usize % live.len()];
                        let _ = pft.dec_ref(p); // may legitimately underflow-err
                    }
                }
                PfOp::Validate(i) => {
                    if !live.is_empty() {
                        let p = live[i as usize % live.len()];
                        pft.set_validated(p, true).unwrap();
                    }
                }
                PfOp::Invalidate(i) => {
                    if !live.is_empty() {
                        let p = live[i as usize % live.len()];
                        pft.set_validated(p, false).unwrap();
                    }
                }
                PfOp::Scan => {
                    pft.consistency_scan();
                    prop_assert_eq!(pft.count_inconsistent(), 0);
                }
            }
            prop_assert_eq!(pft.free_count() + live.len(), total);
        }
        pft.consistency_scan();
        prop_assert_eq!(pft.count_inconsistent(), 0);
    }

    /// Timer events always pop in non-decreasing deadline order.
    #[test]
    fn timer_pops_are_ordered(deadlines in prop::collection::vec(0u64..10_000, 1..64)) {
        let mut t = TimerSubsystem::new(1);
        for (i, ms) in deadlines.iter().enumerate() {
            t.insert(CpuId(0), TimerEvent {
                deadline: SimTime::from_micros(*ms),
                kind: TimerEventKind::OneShot(i as u64),
                period: None,
            });
        }
        let far = SimTime::from_secs(100);
        let mut last = SimTime::ZERO;
        let mut popped = 0;
        while let Some(ev) = t.pop_due(CpuId(0), far) {
            prop_assert!(ev.deadline >= last);
            last = ev.deadline;
            popped += 1;
        }
        prop_assert_eq!(popped, deadlines.len());
    }

    /// Reactivation after arbitrary event loss restores exactly the
    /// expected recurring set, idempotently.
    #[test]
    fn timer_reactivation_is_complete_and_idempotent(drop_mask in 0u16..64) {
        let mut t = TimerSubsystem::new(4);
        let period = SimDuration::from_millis(10);
        let expected: Vec<(TimerEventKind, CpuId, SimDuration)> = (0..4)
            .map(|c| (TimerEventKind::WatchdogHeartbeat(CpuId(c)), CpuId(c), period))
            .chain([(TimerEventKind::TimeSync, CpuId(0), period)])
            .collect();
        for (kind, cpu, _) in &expected {
            t.insert(*cpu, TimerEvent { deadline: SimTime::ZERO, kind: *kind, period: Some(period) });
        }
        for (i, (kind, _, _)) in expected.iter().enumerate() {
            if drop_mask & (1 << i) != 0 {
                t.remove_kind(*kind);
            }
        }
        t.reactivate_recurring(&expected, SimTime::from_millis(5));
        for (kind, _, _) in &expected {
            prop_assert!(t.contains_kind(*kind));
        }
        prop_assert_eq!(t.reactivate_recurring(&expected, SimTime::from_millis(5)), 0);
    }

    /// Any pattern of acquisitions is fully cleared by the two unlock
    /// passes recovery runs (heap locks + the static segment).
    #[test]
    fn lock_registry_release_passes_clear_everything(
        holders in prop::collection::vec((0u8..8, any::<bool>()), 0..32)
    ) {
        let mut reg = LockRegistry::new();
        let heap_ids: Vec<_> = (0..8)
            .map(|i| reg.register(format!("h{i}"), LockPlacement::Heap))
            .collect();
        for (i, (cpu, use_heap)) in holders.iter().enumerate() {
            let id = if *use_heap {
                heap_ids[i % heap_ids.len()]
            } else {
                nlh_hv::locks::StaticLock::ALL[i % 5].id()
            };
            let _ = reg.acquire(id, CpuId(*cpu as u32));
        }
        reg.unlock_heap_locks(heap_ids.clone());
        reg.unlock_static_segment();
        prop_assert!(reg.held_locks().is_empty());
        // Everything is acquirable again.
        for id in heap_ids {
            prop_assert_eq!(reg.acquire(id, CpuId(0)), AcquireOutcome::Acquired);
        }
    }

    /// `make_consistent_from_percpu` + `requeue_runnable` always produce a
    /// state that passes every scheduler assertion, from any torn state.
    #[test]
    fn scheduler_repair_always_converges(
        percpu in prop::collection::vec(prop::option::of(0u8..4), 4),
        torn in prop::collection::vec((0u8..4, prop::option::of(0u8..4), any::<bool>()), 0..8),
    ) {
        let mut s = Scheduler::new(4);
        for i in 0..4 {
            s.register_vcpu(VcpuId(i), CpuId(i));
        }
        for (c, v) in percpu.iter().enumerate() {
            s.cs_set_percpu_current(CpuId(c as u32), v.map(|x| VcpuId(x as u32)));
        }
        for (v, on, cur) in torn {
            s.cs_set_running_on(VcpuId(v as u32), on.map(|c| CpuId(c as u32)));
            s.cs_set_is_current(VcpuId(v as u32), cur);
        }
        s.make_consistent_from_percpu();
        s.requeue_runnable();
        prop_assert!(s.check_all().is_ok());
        // Idempotent:
        prop_assert_eq!(s.make_consistent_from_percpu(), 0);
    }

    /// The unpinned-page filter hypercall binding uses is the naive
    /// `contains` filter, element for element and in order — so the
    /// candidate list, and with it every RNG draw that picks from it, is
    /// unchanged. Small value ranges force duplicates on both sides and
    /// excluded pages that are not in `pages`; lengths include empty
    /// lists. The marks cover pages 0..64, so values from 64 up take the
    /// out-of-range fallback, the top few as far out as `u32::MAX`. One
    /// set of marks serves every case, as the hypervisor's does across
    /// calls, so a mark left set would corrupt a later case.
    #[test]
    fn page_marks_filter_equals_contains_filter(
        cases in prop::collection::vec(
            (prop::collection::vec(0u32..100, 0..48), prop::collection::vec(0u32..100, 0..48)),
            1..8,
        ),
    ) {
        let page = |v: u32| PageNum(if v >= 96 { u32::MAX - (v - 96) } else { v });
        let mut marks = PageMarks::new(64);
        for (pages, exclude) in cases {
            let pages: Vec<PageNum> = pages.into_iter().map(page).collect();
            let exclude: Vec<PageNum> = exclude.into_iter().map(page).collect();
            let naive: Vec<PageNum> = pages
                .iter()
                .copied()
                .filter(|p| !exclude.contains(p))
                .collect();
            let mut out = vec![PageNum(7)];
            marks.extend_excluding(&pages, &exclude, &mut out);
            prop_assert_eq!(out[0], PageNum(7), "appends, never clears");
            prop_assert_eq!(&out[1..], &naive[..]);
        }
    }
}
