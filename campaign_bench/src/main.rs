//! Campaign benchmark: end-to-end throughput of fault-injection campaigns
//! and of the replay-and-bisect debugging loop, plus a traced per-layer
//! ledger of where their host time goes.
//!
//! ```text
//! campaign-bench --workload NAME --seed N --seconds S --trace 0|1
//! campaign-bench --smoke
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones (`BENCHMARK.json` `end_to_end`), with
//! `--trace 1` the per-layer ones (`per_layer`), and the traced run's
//! spans are written to `.bench_out/`. See README.md for the workloads,
//! the metrics and what each layer metric is expected to move.

mod json;
mod ledger;
mod stats;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use nlh_campaign::{
    bisect_trials, mechanism_for_name, run_trial, BootCache, CampaignEngine, CampaignSpec,
    CellOutput, NullSink, SuiteSpec, TrialConfig, TrialRecord, TrialResult,
};
use nlh_core::RecoveryMechanism;
use nlh_hv::MachineConfig;

use crate::json::{escape, Json};
use crate::ledger::{EngineStats, LedgerInput, Metric};
use crate::stats::median;
use crate::trace::{DebugOutcome, Recorder, Span};
use crate::workload::{DebugInput, Plan, Scale, Workload};

/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPS: usize = 7;
/// Fewest timed replay-and-bisect passes behind `bisect_s`.
const DEBUG_REPS: usize = 5;
/// Replay-and-bisect time per second of timed campaign passes.
const BISECT_SHARE: f64 = 0.5;
/// Cold-boot `run_trial` spot checks per campaign pass.
const SPOT_CHECKS: u64 = 2;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Smoke,
}

fn parse_args() -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            return Ok(Mode::Smoke);
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::from_name(&value)
                        .ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => {
                seconds = value.parse().map_err(|_| "--seconds needs a number")?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Mode::Run(Args {
        workload,
        seed: seed.unwrap_or(workload.default_seed()),
        seconds,
        trace,
    }))
}

/// Operations attempted and failed, with a note per failed check.
#[derive(Default)]
struct Gate {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Gate {
    fn attempt(&mut self, ops: u64) {
        self.attempted += ops;
    }

    /// Records a check over `ops` already-attempted operations.
    fn check(&mut self, ops: u64, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failed += ops.max(1);
            let note = what();
            eprintln!("CHECK FAILED: {note}");
            self.notes.push(note);
        }
    }
}

/// The program state a run measures against, built during set-up.
struct Setup {
    engine: CampaignEngine,
    suite: SuiteSpec,
    /// Gate-size cells run once to check the pins.
    gate_suite: SuiteSpec,
    build_ms: Vec<f64>,
}

/// Everything before the timed phase: engine construction, manifest and
/// log parsing, and one template build per setup the workload uses.
fn set_up(plan: &Plan) -> Result<Setup, String> {
    let engine = CampaignEngine::new();
    let suite = SuiteSpec::parse(&plan.manifest)?;
    let gate_suite = SuiteSpec::parse(&plan.gate_manifest)?;
    TrialRecord::from_text(&plan.debug.text)?;
    let machine = MachineConfig::small();
    let mut build_ms = Vec::new();
    for &setup in &plan.templates {
        let t = Instant::now();
        engine.cache().checkout(&machine, setup, 0);
        build_ms.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Ok(Setup {
        engine,
        suite,
        gate_suite,
        build_ms,
    })
}

/// One untraced pass over the workload's job graph.
struct CampaignPass {
    names: Vec<String>,
    /// Each cell's per-trial results, compared across passes and against
    /// the traced replica.
    cells: Vec<Vec<TrialResult>>,
    trials: u64,
    wall_s: f64,
    engine: EngineStats,
}

fn campaign_pass(engine: &CampaignEngine, suite: &SuiteSpec) -> Result<CampaignPass, String> {
    let t = Instant::now();
    let jobs = engine
        .run_suite(suite, &mut NullSink)
        .map_err(|e| e.to_string())?;
    let wall_s = t.elapsed().as_secs_f64();
    let mut busy_s = 0.0;
    for job in &jobs {
        match &job.cell.output {
            CellOutput::Sharded(r) => {
                busy_s += (r.telemetry.setup_nanos + r.telemetry.run_nanos) as f64 / 1e9
            }
            CellOutput::Sampled(_) => {
                return Err(format!("{}: sampled cells are not timed", job.name))
            }
        }
    }
    let cells: Vec<Vec<TrialResult>> = jobs.iter().map(|j| j.cell.per_trial.clone()).collect();
    Ok(CampaignPass {
        names: jobs.iter().map(|j| j.name.clone()).collect(),
        trials: cells.iter().map(|c| c.len() as u64).sum(),
        cells,
        wall_s,
        engine: EngineStats {
            workers: trace::cell_threads(u64::MAX),
            busy_s,
            wall_s,
        },
    })
}

fn spec_of<'a>(suite: &'a SuiteSpec, name: &str) -> &'a CampaignSpec {
    &suite
        .jobs
        .iter()
        .find(|j| j.spec.name == name)
        .expect("job ran, so it is in the suite")
        .spec
}

/// `[non_manifested, sdc, detected, successes, no_vmf]` over trials.
fn counts(trials: &[TrialResult]) -> [u64; 5] {
    use nlh_campaign::TrialClass;
    let mut c = [0u64; 5];
    for t in trials {
        match &t.class {
            TrialClass::NonManifested => c[0] += 1,
            TrialClass::Sdc => c[1] += 1,
            TrialClass::RecoverySuccess { no_vm_failures } => {
                c[2] += 1;
                c[3] += 1;
                c[4] += u64::from(*no_vm_failures);
            }
            TrialClass::RecoveryFailure(_) => c[2] += 1,
        }
    }
    c
}

/// Checks the plan's pins on the gate-size cells.
fn check_pins(gate: &mut Gate, plan: &Plan, pinned: &CampaignPass) {
    for pin in &plan.pins {
        let Some(i) = pinned.names.iter().position(|n| *n == pin.cell) else {
            gate.check(pin.prefix, false, || {
                format!("pinned cell {} did not run", pin.cell)
            });
            continue;
        };
        let cell = &pinned.cells[i];
        let (ok, got) = match cell.get(..pin.prefix as usize) {
            Some(prefix) => {
                let got = counts(prefix);
                (got == pin.expect, format!("{got:?}"))
            }
            None => (false, format!("only {} trials", cell.len())),
        };
        gate.check(pin.prefix, ok, || {
            format!(
                "{} over {} trials: got {got}, {} pins {:?}",
                pin.cell, pin.prefix, pin.source, pin.expect
            )
        });
    }
}

/// Runs the gate-size cells, if the plan has any, and checks the plan's
/// pins on them; then checks a few cold-boot trials of `pass`.
fn check_campaign(
    gate: &mut Gate,
    plan: &Plan,
    setup: &Setup,
    pass: &CampaignPass,
    seed: u64,
) -> Result<(), String> {
    if !plan.pins.is_empty() {
        let pinned = campaign_pass(&setup.engine, &setup.gate_suite)?;
        gate.attempt(pinned.trials);
        check_pins(gate, plan, &pinned);
    }
    let first_cell = pass
        .cells
        .iter()
        .zip(&pass.names)
        .find(|(c, _)| !c.is_empty());
    if let Some((per_trial, name)) = first_cell {
        let spec = spec_of(&setup.suite, name);
        let mech = spec.mechanism.build();
        let n = per_trial.len() as u64;
        let mut picks: Vec<u64> = (0..SPOT_CHECKS)
            .map(|k| {
                seed.wrapping_mul(0x9E37_79B9)
                    .wrapping_add(k * n / SPOT_CHECKS)
                    % n
            })
            .collect();
        picks.dedup();
        for i in picks {
            let cfg = TrialConfig::new(spec.setup, spec.fault, spec.seed + i);
            let cold = run_trial(&cfg, mech.as_ref());
            gate.attempt(1);
            gate.check(1, cold == per_trial[i as usize], || {
                format!("{name} trial {i}: cold run_trial differs from the engine's result")
            });
        }
    }
    Ok(())
}

fn mechanism_for(record: &TrialRecord) -> Result<Box<dyn RecoveryMechanism>, String> {
    mechanism_for_name(&record.mechanism)
        .ok_or_else(|| format!("unknown mechanism {}", record.mechanism))
}

/// Parses, replays and bisects one record through the production calls.
fn debug_one(input: &DebugInput, cache: &BootCache) -> Result<DebugOutcome, String> {
    let record = TrialRecord::from_text(&input.text)?;
    let mech = mechanism_for(&record)?;
    let replay = record.replay(mech.as_ref(), cache)?;
    let (faulty, reference) = trace::bisect_sides(&record);
    let report = bisect_trials(
        (&record.config, &faulty),
        (&record.config, &reference),
        mech.as_ref(),
        cache,
    );
    Ok(DebugOutcome {
        replay,
        divergent_step: report.as_ref().map(|r| r.divergent_step),
        probes: report.as_ref().map_or(0, |r| r.probes),
        steps: report.as_ref().map_or((0, 0), |r| (r.a.steps, r.b.steps)),
    })
}

/// One untraced replay-and-bisect pass over the plan's record, checked
/// against the record's pin.
fn debug_pass(gate: &mut Gate, plan: &Plan, cache: &BootCache) -> (f64, Option<DebugOutcome>) {
    let input = &plan.debug;
    let t = Instant::now();
    let out = debug_one(input, cache);
    let wall = t.elapsed().as_secs_f64();
    gate.attempt(1);
    let out = match out {
        Err(e) => {
            gate.check(1, false, || format!("{}: {e}", input.name));
            None
        }
        Ok(o) => {
            let ok = (o.divergent_step, o.probes) == (Some(input.pin.0), input.pin.1);
            gate.check(1, ok, || {
                format!(
                    "{}: divergent step {:?} after {} probes, expected {:?}",
                    input.name, o.divergent_step, o.probes, input.pin
                )
            });
            Some(o)
        }
    };
    (wall, out)
}

/// Repeated replay-and-bisect passes: their walls, each pass checked
/// against the first.
#[derive(Default)]
struct DebugReps {
    walls: Vec<f64>,
    first: Option<Option<DebugOutcome>>,
}

impl DebugReps {
    fn run(&mut self, gate: &mut Gate, plan: &Plan, cache: &BootCache) -> f64 {
        let (wall, outs) = debug_pass(gate, plan, cache);
        self.walls.push(wall);
        match &self.first {
            Some(first) => gate.check(1, *first == outs, || {
                "replay-and-bisect pass differs from the first".into()
            }),
            None => self.first = Some(outs),
        }
        wall
    }
}

/// The traced replica of [`debug_pass`].
fn traced_debug_pass(
    plan: &Plan,
    cache: &BootCache,
    units: &mut Vec<String>,
) -> (Result<DebugOutcome, String>, Vec<Span>) {
    let input = &plan.debug;
    let mut rec = Recorder::new(Instant::now(), 0);
    let unit = units.len() as u32;
    units.push(input.name.clone());
    let out = TrialRecord::from_text(&input.text).and_then(|record| {
        let mech = mechanism_for(&record)?;
        trace::traced_debug(&mut rec, unit, &input.text, mech.as_ref(), cache)
    });
    (out, trace::merge(vec![rec]))
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A finished run: the result line's fields.
struct Report {
    gate: Gate,
    metrics: Vec<Metric>,
}

impl Report {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    escape(&m.name),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.gate.failed == 0 && self.gate.attempted > 0,
            self.gate.attempted.max(1),
            self.gate.failed.min(self.gate.attempted.max(1)),
            metrics.join(", ")
        )
    }
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Runs one workload and returns its report.
fn run(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: Scale,
) -> Result<Report, String> {
    let plan = workload.plan(seed, scale)?;
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let s = set_up(&plan)?;
        setup_s.push(t.elapsed().as_secs_f64());
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let cache = setup.engine.cache();
    let mut gate = Gate::default();
    eprintln!(
        "{} seed {seed}: {} cells, {} templates, {} workers, set-up median {:.3}s",
        workload.name(),
        setup.suite.jobs.len(),
        plan.templates.len(),
        trace::cell_threads(u64::MAX),
        median(&setup_s)
    );

    if traced {
        return traced_run(workload, seed, &plan, &setup, gate);
    }

    // Timed phase: rounds of one pass over the job graph followed by
    // replay-and-bisect passes, until bisection has had half as much
    // time as the campaign passes, so that samples of both spread over
    // the run. Rounds go on while another fits in the budget. Every pass
    // must repeat the first. The first round warms the process and
    // carries the gate's checks; it is not timed.
    let started = Instant::now();
    let first = campaign_pass(&setup.engine, &setup.suite)?;
    gate.attempt(first.trials);
    check_campaign(&mut gate, &plan, &setup, &first, seed)?;
    let mut debug = DebugReps::default();
    debug.run(&mut gate, &plan, cache);
    debug.walls.clear();
    let mut rates = Vec::new();
    let mut campaign_s = 0.0;
    let reps = if scale == Scale::Full { DEBUG_REPS } else { 1 };
    loop {
        let round = Instant::now();
        let pass = campaign_pass(&setup.engine, &setup.suite)?;
        gate.attempt(pass.trials);
        rates.push(pass.trials as f64 / pass.wall_s);
        campaign_s += pass.wall_s;
        for ((a, b), name) in first.cells.iter().zip(&pass.cells).zip(&pass.names) {
            gate.check(b.len() as u64, a == b, || {
                format!("{name}: pass differs from the first")
            });
        }
        debug.run(&mut gate, &plan, cache);
        while debug.walls.iter().sum::<f64>() < campaign_s * BISECT_SHARE {
            debug.run(&mut gate, &plan, cache);
        }
        let round_s = round.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + round_s > seconds {
            break;
        }
    }
    while debug.walls.len() < reps {
        debug.run(&mut gate, &plan, cache);
    }
    eprintln!(
        "  {} timed passes of {} trials, {} replay-and-bisect passes, {:.1}s",
        rates.len(),
        first.trials,
        debug.walls.len(),
        started.elapsed().as_secs_f64()
    );
    let metrics = vec![
        metric("trials_per_s", median(&rates), "1/s"),
        metric("bisect_s", median(&debug.walls), "s"),
        metric("setup_s", median(&setup_s), "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    Ok(Report { gate, metrics })
}

/// Compares a traced cell with the untraced engine cell of the same
/// trial keys, trial by trial.
fn check_cell_twins(gate: &mut Gate, name: &str, untraced: &[TrialResult], traced: &[TrialResult]) {
    let differing = untraced.iter().zip(traced).filter(|(a, b)| a != b).count() as u64
        + untraced.len().abs_diff(traced.len()) as u64;
    gate.check(differing, differing == 0, || {
        format!("{name}: {differing} traced trials differ from their untraced twins")
    });
}

/// The traced run: one untraced pass, its traced replica over the same
/// trial keys, and the per-layer ledger from the replica's spans.
fn traced_run(
    workload: Workload,
    seed: u64,
    plan: &Plan,
    setup: &Setup,
    mut gate: Gate,
) -> Result<Report, String> {
    let cache = setup.engine.cache();
    let mut units: Vec<String> = Vec::new();

    // Each untraced phase runs twice: the first run warms the process
    // (allocator, caches), the second is the baseline the traced replica
    // is compared with, for both results and wall time.
    let warm = campaign_pass(&setup.engine, &setup.suite)?;
    gate.attempt(warm.trials);
    check_campaign(&mut gate, plan, setup, &warm, seed)?;
    let pass = campaign_pass(&setup.engine, &setup.suite)?;
    gate.attempt(pass.trials);
    for ((a, b), name) in warm.cells.iter().zip(&pass.cells).zip(&pass.names) {
        gate.check(b.len() as u64, a == b, || {
            format!("{name}: pass differs from the first")
        });
    }

    let epoch = Instant::now();
    let mut recorders = Vec::new();
    let mut detected = 0u64;
    for (name, untraced) in pass.names.iter().zip(&pass.cells) {
        let unit = units.len() as u32;
        units.push(name.clone());
        let spec = spec_of(&setup.suite, name);
        let traced = trace::traced_cell(epoch, unit, spec, cache, &mut recorders);
        gate.attempt(traced.len() as u64);
        detected += traced.iter().filter(|t| t.observations.detected).count() as u64;
        check_cell_twins(&mut gate, name, untraced, &traced);
    }
    let traced_wall = epoch.elapsed().as_secs_f64();
    let campaign_spans = trace::merge(recorders);

    let mut debug = DebugReps::default();
    debug.run(&mut gate, plan, cache);
    debug.run(&mut gate, plan, cache);
    let untraced_debug = debug.first.take().flatten();
    let (traced_debug, debug_spans) = traced_debug_pass(plan, cache, &mut units);
    gate.attempt(1);
    let twins = matches!((&untraced_debug, &traced_debug), (Some(u), Ok(t)) if u == t);
    gate.check(1, twins, || {
        format!(
            "{}: traced replay/bisect differs from its untraced twin",
            plan.debug.name
        )
    });

    let metrics = ledger::per_layer(&LedgerInput {
        campaign: &campaign_spans,
        debug: &debug_spans,
        engine: pass.engine,
        build_ms: &setup.build_ms,
        detected,
        untraced_wall_s: pass.wall_s,
        traced_wall_s: traced_wall,
    });

    let path =
        PathBuf::from(".bench_out").join(format!("spans-{}-seed{seed}.jsonl", workload.name()));
    let phases: [(&str, &[Span]); 2] = [("campaign", &campaign_spans), ("debug", &debug_spans)];
    match ledger::write_spans(&path, &phases, &units) {
        Ok(()) => eprintln!(
            "  {} spans written to {}",
            campaign_spans.len() + debug_spans.len(),
            path.display()
        ),
        Err(e) => eprintln!("  could not write spans to {}: {e}", path.display()),
    }
    Ok(Report { gate, metrics })
}

/// `(name, unit)` of each metric in one section of `BENCHMARK.json`.
type MetricTable = Vec<(String, String)>;

/// The `end_to_end` and `per_layer` tables of `BENCHMARK.json`.
fn declared_metrics() -> Result<(MetricTable, MetricTable), String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text)?;
    let section = |key: &str| -> Result<MetricTable, String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .ok_or(format!("BENCHMARK.json has no {key} list"))?
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).map(str::to_string);
                field("name")
                    .zip(field("unit"))
                    .ok_or(format!("malformed {key} entry"))
            })
            .collect()
    };
    Ok((section("end_to_end")?, section("per_layer")?))
}

/// Smoke mode: every workload at minimal size, untraced and traced,
/// checking the correctness gate and that the emitted metric names and
/// units are exactly the ones `BENCHMARK.json` declares.
fn smoke() -> Result<(), String> {
    let (end_to_end, per_layer) = declared_metrics()?;
    let mut problems = Vec::new();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let report = run(workload, 1, 0.0, traced, Scale::Smoke)?;
            let declared = if traced { &per_layer } else { &end_to_end };
            let mut emitted: Vec<(String, String)> = report
                .metrics
                .iter()
                .map(|m| (m.name.clone(), m.unit.to_string()))
                .collect();
            let mut want = declared.clone();
            emitted.sort();
            want.sort();
            let label = format!("{} trace={}", workload.name(), u8::from(traced));
            if emitted != want {
                problems.push(format!(
                    "{label}: emitted metrics {emitted:?} != declared {want:?}"
                ));
            }
            if report.gate.failed > 0 || report.gate.attempted == 0 {
                problems.push(format!("{label}: gate {:?}", report.gate.notes));
            }
            for m in &report.metrics {
                if !m.value.is_finite() || (!traced && m.value <= 0.0) {
                    problems.push(format!("{label}: {} = {}", m.name, m.value));
                }
            }
            eprintln!(
                "smoke {label}: {} metrics, {} attempted, {} failed",
                report.metrics.len(),
                report.gate.attempted,
                report.gate.failed
            );
        }
    }
    if problems.is_empty() {
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

fn main() -> ExitCode {
    let mode = match parse_args() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("campaign-bench: {e}");
            eprintln!(
                "usage: campaign-bench --workload NAME --seed N --seconds S --trace 0|1 | --smoke"
            );
            return ExitCode::from(2);
        }
    };
    match mode {
        Mode::Smoke => match smoke() {
            Ok(()) => {
                println!("smoke OK");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smoke FAILED:\n{e}");
                ExitCode::FAILURE
            }
        },
        Mode::Run(args) => match run(
            args.workload,
            args.seed,
            args.seconds,
            args.trace,
            Scale::Full,
        ) {
            Ok(report) => {
                println!("{}", report.to_json());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("campaign-bench: {e}");
                ExitCode::FAILURE
            }
        },
    }
}
