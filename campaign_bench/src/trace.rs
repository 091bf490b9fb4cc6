//! The traced run: in-memory spans around every call into a layer, and
//! replicas of the production trial loop, campaign cells and bisector
//! that make those calls one at a time.
//!
//! The production paths (`CampaignEngine::run_spec`, `run_trial_with`,
//! `bisect_trials`) are single calls that cannot be observed from
//! outside. The replicas here re-execute the same trial keys through the
//! public layer functions — `BootCache::checkout`,
//! `Hypervisor::run_until_marker`, `Injector::run_counting`/`on_step`,
//! `RecoveryMechanism::recover`, `Hypervisor::run_until`, `classify` —
//! with a span around each. The caller checks every replica result
//! against its untraced twin, so a replica that drifts from the
//! production loop fails the run instead of silently measuring
//! something else.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use nlh_campaign::{
    classify, first_divergence, BootCache, CampaignSpec, TrialClass, TrialConfig,
    TrialObservations, TrialRecord, TrialResult, TrialRunOptions, MAX_TRIGGER_OPS,
};
use nlh_core::{RecoveryMechanism, RecoveryReport};
use nlh_hv::{HandlerKind, Hypervisor};
use nlh_inject::{InjectionOutcome, InjectionPoint, Injector};
use nlh_sim::{SimDuration, SimTime};

/// Which unit of work a span belongs to: a trial of a campaign cell, or
/// a record of the debug pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanKey {
    /// Index into the run's unit-name table (cell or record name).
    pub unit: u32,
    /// Trial index within the cell (0 for debug records).
    pub trial: u64,
}

/// One timed call.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified call name, e.g. `hv.pre_trigger`.
    pub name: &'static str,
    /// Start, in nanoseconds since the run's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the merged span list.
    pub parent: Option<usize>,
    /// The trial or record the span worked for.
    pub key: SpanKey,
    /// Simulation steps executed inside the span.
    pub steps: u64,
    /// The worker that recorded the span.
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One worker's span buffer. Spans nest through an explicit stack, so a
/// span's parent is whatever was open when it was entered.
pub struct Recorder {
    epoch: Instant,
    thread: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    /// An empty buffer for worker `thread`, timing against `epoch`.
    pub fn new(epoch: Instant, thread: u32) -> Self {
        Recorder {
            epoch,
            thread,
            spans: Vec::with_capacity(4096),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span.
    pub fn enter(&mut self, name: &'static str, key: SpanKey) {
        let start_ns = self.now_ns();
        self.stack.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.iter().rev().nth(1).copied(),
            key,
            steps: 0,
            thread: self.thread,
        });
    }

    /// Closes the innermost open span, crediting it `steps` simulation
    /// steps.
    pub fn exit(&mut self, steps: u64) {
        let end = self.now_ns();
        let idx = self.stack.pop().expect("exit without enter");
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.steps = steps;
    }

    /// Times `f` as a span around a hypervisor call, crediting the steps
    /// it executed.
    fn hv_call<T>(
        &mut self,
        name: &'static str,
        key: SpanKey,
        hv: &mut Hypervisor,
        f: impl FnOnce(&mut Hypervisor) -> T,
    ) -> T {
        let before = hv.steps_executed();
        self.enter(name, key);
        let out = f(hv);
        self.exit(hv.steps_executed() - before);
        out
    }
}

/// Merges worker buffers into one span list, rebasing parent indices.
pub fn merge(recorders: Vec<Recorder>) -> Vec<Span> {
    let mut all = Vec::new();
    for rec in recorders {
        assert!(rec.stack.is_empty(), "unclosed span");
        let base = all.len();
        all.extend(rec.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
    all
}

/// A traced trial's result plus the trigger facts a record replay is
/// checked against.
pub struct TracedTrial {
    pub result: TrialResult,
    pub injection: Option<InjectionPoint>,
    pub ops_budget: u64,
    pub fire_at: SimTime,
}

/// Trigger steering for one trial (the knobs of `TrialRunOptions` a
/// campaign or record sets).
#[derive(Debug, Clone, Copy, Default)]
pub struct Steering {
    pub trigger_ops: Option<(u64, u64)>,
    pub steer: Option<(HandlerKind, u64)>,
}

/// Checks out a system and runs one trial, a span around every layer
/// call. Replicates the batched path of `run_trial_with` (default
/// options apart from the steering knobs) minus its event record; the
/// caller compares the result with the production run of the same key.
pub fn traced_trial(
    rec: &mut Recorder,
    key: SpanKey,
    cache: &BootCache,
    config: &TrialConfig,
    mechanism: &dyn RecoveryMechanism,
    steering: Steering,
) -> TracedTrial {
    rec.enter("trial", key);
    rec.enter("boot_cache.checkout", key);
    let (mut hv, layout) = cache.checkout(&config.machine, config.setup, config.seed);
    rec.exit(0);

    hv.support = mechanism.op_support();
    let trigger_ops = steering.trigger_ops.unwrap_or((0, MAX_TRIGGER_OPS));
    let mut injector = Injector::with_ops_range(
        config.fault,
        config.seed.wrapping_mul(0x9E3779B97F4A7C15) ^ 0xF00D,
        config.setup.trigger_window(),
        trigger_ops,
    );
    if let Some((handler, depth)) = steering.steer {
        injector = injector.steer_to_handler(handler).with_steer_depth(depth);
    }
    let trial_end = SimTime::ZERO + config.setup.trial_duration();
    let deadline = SimTime::ZERO
        + trial_end
            .saturating_since(SimTime::ZERO)
            .saturating_sub(SimDuration::from_millis(500));

    let steps_before = hv.steps_executed();
    let mut obs = TrialObservations::default();
    let mut recovery: Option<RecoveryReport> = None;
    let mut recovered = false;
    let mut short_circuit: Option<TrialClass> = None;

    while hv.now() < trial_end {
        if hv.detection().is_some() {
            if recovered {
                obs.second_detection = true;
                obs.second_detection_reason = hv.detection().map(|d| d.reason.clone());
                break;
            }
            obs.detected = true;
            recovered = true;
            rec.enter("core.recover", key);
            let outcome = mechanism.recover(&mut hv);
            rec.exit(0);
            match outcome {
                Ok(r) => recovery = Some(r),
                Err(e) => {
                    obs.recovery_error = Some(e.to_string());
                    break;
                }
            }
            continue;
        }
        let mut injected_now = false;
        let mut stepped = None;
        if injector.is_done() {
            let name = if recovered { "hv.verdict" } else { "hv.latent" };
            rec.hv_call(name, key, &mut hv, |hv| hv.run_until(trial_end));
        } else if injector.is_waiting() {
            stepped = rec.hv_call("hv.pre_trigger", key, &mut hv, |hv| {
                hv.run_until_marker(trial_end, injector.fire_at())
            });
        } else {
            injected_now = rec.hv_call("inject.counting", key, &mut hv, |hv| {
                injector.run_counting(hv, trial_end)
            });
        }
        let mut check_class = injected_now;
        if let Some((cpu, out)) = stepped {
            rec.enter("inject.counting", key);
            injector.on_step(&mut hv, cpu, out);
            rec.exit(0);
            check_class = true;
        }
        if check_class && hv.detection().is_none() {
            short_circuit = match injector.outcome() {
                Some(InjectionOutcome::NonManifested) => Some(TrialClass::NonManifested),
                Some(InjectionOutcome::Sdc) => Some(TrialClass::Sdc),
                _ => None,
            };
            if short_circuit.is_some() {
                break;
            }
        }
    }

    let class = match short_circuit {
        Some(class) => class,
        None => {
            rec.enter("classify", key);
            let class = classify(&hv, &layout, &obs, hv.now_max(), deadline);
            rec.exit(0);
            class
        }
    };
    let steps = hv.steps_executed() - steps_before;
    rec.exit(steps);
    TracedTrial {
        result: TrialResult {
            injection: injector.outcome(),
            observations: obs,
            recovery,
            class,
            steps,
        },
        injection: injector.injection_point().copied(),
        ops_budget: injector.ops_budget(),
        fire_at: injector.fire_at(),
    }
}

/// Worker threads a sharded cell uses, as the engine chooses them.
pub fn cell_threads(trials: u64) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(trials.max(1) as usize)
}

/// Re-executes one sharded campaign cell with spans, on the engine's
/// worker count, workers pulling the next trial index from a shared
/// counter. Returns the per-trial results in seed order.
pub fn traced_cell(
    epoch: Instant,
    unit: u32,
    spec: &CampaignSpec,
    cache: &BootCache,
    recorders: &mut Vec<Recorder>,
) -> Vec<TrialResult> {
    let threads = cell_threads(spec.trials);
    let next = AtomicU64::new(0);
    let mut indexed: Vec<(u64, TrialResult)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let next = &next;
                scope.spawn(move || {
                    let mut rec = Recorder::new(epoch, w as u32);
                    let mech = spec.mechanism.build();
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= spec.trials {
                            break;
                        }
                        let config = TrialConfig::new(spec.setup, spec.fault, spec.seed + i);
                        let key = SpanKey { unit, trial: i };
                        let t = traced_trial(
                            &mut rec,
                            key,
                            cache,
                            &config,
                            mech.as_ref(),
                            Steering::default(),
                        );
                        out.push((i, t.result));
                    }
                    (out, rec)
                })
            })
            .collect();
        let mut all = Vec::with_capacity(spec.trials as usize);
        for h in handles {
            let (out, rec) = h.join().expect("traced worker panicked");
            all.extend(out);
            recorders.push(rec);
        }
        all
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// What a replay-and-bisect of one record found.
#[derive(Debug, Clone, PartialEq)]
pub struct DebugOutcome {
    /// The replayed trial.
    pub replay: TrialResult,
    /// First divergent step against the fault-free reference, if any.
    pub divergent_step: Option<u64>,
    /// Agreement probes the bisection ran.
    pub probes: u32,
    /// Full-run steps of the faulty and the reference side.
    pub steps: (u64, u64),
}

/// The two sides a record is bisected between: the recorded trial and
/// its fault-free reference execution.
pub fn bisect_sides(record: &TrialRecord) -> (TrialRunOptions, TrialRunOptions) {
    let faulty = TrialRunOptions {
        trigger_ops: Some(record.trigger_ops),
        steer_handler: record.steer_handler,
        steer_depth: record.steer_depth,
        ..TrialRunOptions::default()
    };
    let reference = TrialRunOptions {
        inject: false,
        ..TrialRunOptions::default()
    };
    (faulty, reference)
}

/// Checks a replayed trial against the claims of its record, as
/// `TrialRecord::replay` does.
fn check_replay(record: &TrialRecord, t: &TracedTrial) -> Result<(), String> {
    if t.fire_at != record.fire_at || t.ops_budget != record.ops_budget {
        return Err("trigger drift against the record".into());
    }
    if t.injection != record.injection {
        return Err(format!(
            "injection point drift: recorded {:?}, replayed {:?}",
            record.injection, t.injection
        ));
    }
    if let Some(expected) = &record.outcome {
        let got = (&t.result.class, t.result.injection, t.result.steps);
        if got != (&expected.class, expected.injection, expected.steps) {
            return Err(format!(
                "outcome drift: recorded {expected:?}, replayed {got:?}"
            ));
        }
    }
    Ok(())
}

/// Parses, replays and bisects one record with a span around each step
/// and around every bisection probe. Replicates `TrialRecord::from_text`,
/// `replay` and `bisect_trials`; the caller compares the outcome with
/// the untraced debug pass.
pub fn traced_debug(
    rec: &mut Recorder,
    unit: u32,
    text: &str,
    mechanism: &dyn RecoveryMechanism,
    cache: &BootCache,
) -> Result<DebugOutcome, String> {
    let key = SpanKey { unit, trial: 0 };
    rec.enter("record.parse", key);
    let record = TrialRecord::from_text(text);
    rec.exit(0);
    let record = record?;

    rec.enter("record.replay", key);
    let steering = Steering {
        trigger_ops: Some(record.trigger_ops),
        steer: record.steer_handler.map(|h| (h, record.steer_depth)),
    };
    let replayed = traced_trial(rec, key, cache, &record.config, mechanism, steering);
    rec.exit(0);
    check_replay(&record, &replayed)?;

    let (faulty, reference) = bisect_sides(&record);
    let config = &record.config;
    let prefix = |rec: &mut Recorder, name: &'static str, opts: &TrialRunOptions, limit| {
        rec.enter(name, key);
        rec.enter("boot_cache.checkout", key);
        let (hv, layout) = cache.checkout(&config.machine, config.setup, config.seed);
        rec.exit(0);
        rec.enter("hv.reference", key);
        let opts = TrialRunOptions {
            batched: false,
            step_limit: limit,
            ..opts.clone()
        };
        let (result, _, hv) = nlh_campaign::run_trial_with(hv, &layout, config, mechanism, opts);
        rec.exit(result.steps);
        rec.enter("hv.digest", key);
        let digest = hv.state_digest();
        rec.exit(0);
        rec.exit(0);
        (digest, result.steps)
    };

    rec.enter("bisect", key);
    let (a_digest, a_steps) = prefix(rec, "bisect.full", &faulty, None);
    let (b_digest, b_steps) = prefix(rec, "bisect.full", &reference, None);
    let mut probes = 0u32;
    let divergent = first_divergence(a_steps.min(b_steps), |k| {
        probes += 1;
        rec.enter("bisect.probe", key);
        let (da, _) = prefix(rec, "bisect.side", &faulty, Some(k));
        let (db, _) = prefix(rec, "bisect.side", &reference, Some(k));
        rec.exit(0);
        da == db
    });
    rec.exit(0);
    let divergent_step = match divergent {
        Some(step) => Some(step),
        None if a_steps == b_steps && a_digest == b_digest => None,
        None => Some(a_steps.min(b_steps)),
    };
    Ok(DebugOutcome {
        replay: replayed.result,
        divergent_step,
        probes,
        steps: (a_steps, b_steps),
    })
}
