//! The benchmark's workloads: which campaign cells and which recorded
//! trial each one runs at a given seed, and the outcomes pinned at the
//! default seeds.

use std::fmt::Write as _;

use nlh_campaign::{setup_manifest_name, BenchKind, MechanismSpec, SetupKind, TrialRecord};
use nlh_inject::FaultType;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One sharded Table I cell: 1AppVM UnixBench, register faults,
    /// NiLiHype.
    Table1Register,
    /// Figure 2 fail-stop cells on 3AppVM under NiLiHype and ReHype.
    Fig2Failstop3AppVm,
}

/// How large a run's cells are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports at.
    Full,
    /// Minimal cells that still run every code path (smoke mode).
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Table1Register, Workload::Fig2Failstop3AppVm];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Table1Register => "table1_register",
            Workload::Fig2Failstop3AppVm => "fig2_failstop_3appvm",
        }
    }

    pub fn from_name(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The seed the golden outcomes are pinned at.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Table1Register => 2018,
            Workload::Fig2Failstop3AppVm => 77,
        }
    }
}

/// A recorded trial for the replay-and-bisect pass.
#[derive(Debug, Clone)]
pub struct DebugInput {
    pub name: String,
    pub text: String,
    /// Pinned `(first divergent step, probes)` against the fault-free
    /// reference.
    pub pin: (u64, u32),
}

/// A pinned outcome: `[non_manifested, sdc, detected, successes,
/// no_vmf]` of a cell's first `prefix` seed-ordered trials.
#[derive(Debug, Clone)]
pub struct Pin {
    pub cell: String,
    pub prefix: u64,
    pub expect: [u64; 5],
    /// Where the pin comes from (for failure messages).
    pub source: &'static str,
}

/// Everything a run of a workload needs, derived from its seed.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The timed campaign cells as a `campaign_server` manifest.
    pub manifest: String,
    /// Gate-size cells run once, untimed, only to check the pins; empty
    /// unless the run is at the default seed.
    pub gate_manifest: String,
    /// Every boot template the workload checks out.
    pub templates: Vec<SetupKind>,
    /// The record for the replay-and-bisect pass.
    pub debug: DebugInput,
    /// Outcome pins that apply at this seed, checked on the gate cells.
    pub pins: Vec<Pin>,
}

const UNIXBENCH: SetupKind = SetupKind::OneAppVm(BenchKind::UnixBench);

/// The checked-in 1AppVM fail-stop residual-failure record, with its
/// pinned first divergent step and probe count against the fault-free
/// reference.
const GOLDEN_LOG: (&str, u64, u32) = ("golden_residual_trial.log", 119_806, 17);

/// `tests/golden.rs`: Figure 2 on 3AppVM, 30 trials, seed 77, either
/// mechanism, fail-stop faults.
const GOLDEN_FIG2_FAILSTOP: [u64; 5] = [0, 0, 30, 30, 30];

/// This benchmark's own pins, for cells `tests/golden.rs` does not
/// cover, measured at the default seeds on the gate-size cells.
const BENCH_TABLE1_REGISTER: [u64; 5] = [733, 69, 198, 161, 161];
const BENCH_FIG2_FAILSTOP: [(MechanismSpec, [u64; 5]); 2] = [
    (MechanismSpec::Nilihype, [0, 0, 40, 40, 40]),
    (MechanismSpec::Rehype, [0, 0, 40, 40, 40]),
];

/// Trials of the `table1_register` cell and of each
/// `fig2_failstop_3appvm` cell: `(timed, gate)`. The gate size is the
/// size the default-seed pins were measured at.
const TABLE1_TRIALS: (u64, u64) = (250, 1000);
const FIG2_TRIALS: (u64, u64) = (10, 40);

/// One sharded cell of a `campaign_server` manifest.
struct Cell<'a> {
    name: &'a str,
    setup: SetupKind,
    fault: FaultType,
    trials: u64,
    seed: u64,
    mechanism: MechanismSpec,
}

impl Cell<'_> {
    fn push_to(&self, manifest: &mut String) {
        let _ = writeln!(manifest, "[job {}]", self.name);
        let _ = writeln!(manifest, "setup = {}", setup_manifest_name(self.setup));
        let _ = writeln!(manifest, "fault = {}", self.fault);
        let _ = writeln!(manifest, "trials = {}", self.trials);
        let _ = writeln!(manifest, "seed = {}", self.seed);
        let _ = writeln!(manifest, "mechanism = {}\n", self.mechanism.manifest_name());
    }
}

/// Reads the checked-in residual-failure record.
fn golden_log() -> Result<DebugInput, String> {
    let (file, step, probes) = GOLDEN_LOG;
    let path = format!(
        "{}/../crates/campaign/tests/data/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path}: {e}"))?;
    Ok(DebugInput {
        name: file.trim_end_matches(".log").to_string(),
        text,
        pin: (step, probes),
    })
}

impl Workload {
    /// Builds the run plan for `seed`.
    pub fn plan(self, seed: u64, scale: Scale) -> Result<Plan, String> {
        let full = scale == Scale::Full;
        let at_default = seed == self.default_seed() && full;
        let mut manifest = String::new();
        let mut gate_manifest = String::new();
        let mut pins = Vec::new();
        let mut templates = Vec::new();
        match self {
            Workload::Table1Register => {
                let name = "table1-register";
                let cell = |trials| Cell {
                    name,
                    setup: UNIXBENCH,
                    fault: FaultType::Register,
                    trials,
                    seed,
                    mechanism: MechanismSpec::Nilihype,
                };
                cell(if full { TABLE1_TRIALS.0 } else { 4 }).push_to(&mut manifest);
                if at_default {
                    cell(TABLE1_TRIALS.1).push_to(&mut gate_manifest);
                    pins.push(Pin {
                        cell: name.into(),
                        prefix: TABLE1_TRIALS.1,
                        expect: BENCH_TABLE1_REGISTER,
                        source: "benchmark pin",
                    });
                }
                templates.push(UNIXBENCH);
            }
            Workload::Fig2Failstop3AppVm => {
                for (mechanism, counts) in BENCH_FIG2_FAILSTOP {
                    let name = format!("fig2-{}-Failstop", mechanism.manifest_name());
                    let cell = |trials| Cell {
                        name: &name,
                        setup: SetupKind::ThreeAppVm,
                        fault: FaultType::Failstop,
                        trials,
                        seed,
                        mechanism,
                    };
                    cell(if full { FIG2_TRIALS.0 } else { 2 }).push_to(&mut manifest);
                    if at_default {
                        cell(FIG2_TRIALS.1).push_to(&mut gate_manifest);
                        pins.push(Pin {
                            cell: name.clone(),
                            prefix: 30,
                            expect: GOLDEN_FIG2_FAILSTOP,
                            source: "tests/golden.rs GOLDEN_FIG2",
                        });
                        pins.push(Pin {
                            cell: name,
                            prefix: FIG2_TRIALS.1,
                            expect: counts,
                            source: "benchmark pin",
                        });
                    }
                }
                templates.push(SetupKind::ThreeAppVm);
            }
        }
        let debug = golden_log()?;
        let record_setup = TrialRecord::from_text(&debug.text)?.config.setup;
        if !templates.contains(&record_setup) {
            templates.push(record_setup);
        }
        Ok(Plan {
            manifest,
            gate_manifest,
            templates,
            debug,
            pins,
        })
    }
}
