//! The per-layer ledger: self time, steps and latency distributions per
//! layer, derived from the traced run's spans.

use std::collections::HashMap;
use std::io::Write as _;

use crate::json::escape;
use crate::stats::{median, tail};
use crate::trace::Span;

/// Span names of the campaign pass whose self time is charged to a
/// layer, with the prefix of the layer's metrics. Everything else (the
/// `trial` wrapper) is glue and lands in `untraced.share`.
const LAYERS: [(&str, &str); 7] = [
    ("boot_cache.checkout", "boot_cache"),
    ("hv.pre_trigger", "hv.pre_trigger"),
    ("inject.counting", "inject.counting"),
    ("hv.latent", "hv.latent"),
    ("core.recover", "core"),
    ("hv.verdict", "hv.verdict"),
    ("classify", "classify"),
];

/// The layers of the replay-and-bisect pass, whose shares are of that
/// pass's busy time.
const DEBUG_LAYERS: [&str; 2] = ["hv.reference", "hv.digest"];

/// Spans that execute simulation steps, reported with steps per trial
/// and steps per host second.
const STEPPING: [&str; 4] = [
    "hv.pre_trigger",
    "inject.counting",
    "hv.latent",
    "hv.verdict",
];

/// Engine-level numbers measured on the untraced pass.
pub struct EngineStats {
    pub workers: usize,
    /// Worker busy seconds (summed over workers).
    pub busy_s: f64,
    /// Wall seconds of the pass.
    pub wall_s: f64,
}

/// What the ledger is computed from.
pub struct LedgerInput<'a> {
    /// Spans of the traced campaign pass.
    pub campaign: &'a [Span],
    /// Spans of the traced replay-and-bisect pass.
    pub debug: &'a [Span],
    pub engine: EngineStats,
    /// Template build times of the kept set-up, in ms.
    pub build_ms: &'a [f64],
    /// Trials of the campaign pass that detected their fault.
    pub detected: u64,
    /// Wall seconds of the campaign pass, untraced and traced.
    pub untraced_wall_s: f64,
    pub traced_wall_s: f64,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

#[derive(Default)]
struct Agg {
    self_ns: u64,
    dur_ns: u64,
    steps: u64,
    durs_us: Vec<f64>,
}

fn aggregate(spans: &[Span]) -> (HashMap<&'static str, Agg>, u64) {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p] += s.dur_ns();
        }
    }
    let mut by_name: HashMap<&'static str, Agg> = HashMap::new();
    let mut busy_ns = 0u64;
    for (i, s) in spans.iter().enumerate() {
        let a = by_name.entry(s.name).or_default();
        a.self_ns += s.dur_ns().saturating_sub(child_ns[i]);
        a.dur_ns += s.dur_ns();
        a.steps += s.steps;
        a.durs_us.push(s.dur_ns() as f64 / 1e3);
        if s.parent.is_none() {
            busy_ns += s.dur_ns();
        }
    }
    (by_name, busy_ns)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Computes every per-layer metric.
pub fn per_layer(input: &LedgerInput<'_>) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric {
            name: name.to_string(),
            value,
            unit,
        })
    };
    let empty = Agg::default();
    let (agg, busy_ns) = aggregate(input.campaign);
    let get = |n: &str| agg.get(n).unwrap_or(&empty);
    let busy = busy_ns as f64;
    let trials = get("trial").durs_us.len() as f64;

    let e = &input.engine;
    let capacity = e.workers as f64 * e.wall_s;
    put("engine.workers", e.workers as f64, "count");
    put(
        "engine.busy_fraction",
        ratio(e.busy_s, capacity),
        "fraction",
    );
    put("engine.idle_core_s", (capacity - e.busy_s).max(0.0), "s");

    put("boot_cache.build_ms", median(input.build_ms), "ms");
    put("boot_cache.misses", input.build_ms.len() as f64, "count");
    let checkouts = &get("boot_cache.checkout").durs_us;
    let (tail_pct, tail_us) = tail(checkouts);
    put("boot_cache.hits", checkouts.len() as f64, "count");
    put("boot_cache.checkout_us_p50", median(checkouts), "us");
    put("boot_cache.checkout_us_tail", tail_us, "us");
    put("boot_cache.checkout_tail_pct", tail_pct, "pct");

    let mut covered = 0.0;
    for (span, prefix) in LAYERS {
        let share = ratio(get(span).self_ns as f64, busy);
        covered += share;
        put(&format!("{prefix}.share"), share, "fraction");
    }
    put("untraced.share", (1.0 - covered).max(0.0), "fraction");

    for span in STEPPING {
        let a = get(span);
        put(
            &format!("{span}.steps_per_trial"),
            ratio(a.steps as f64, trials),
            "steps",
        );
        put(
            &format!("{span}.msteps_per_s"),
            ratio(a.steps as f64 * 1e3, a.dur_ns as f64),
            "Msteps/s",
        );
    }
    let sim_steps: u64 = STEPPING.iter().map(|s| get(s).steps).sum();
    put(
        "sim_steps_per_s",
        ratio(sim_steps as f64 * 1e9, busy),
        "steps/s",
    );
    put(
        "inject.detected_fraction",
        ratio(input.detected as f64, trials),
        "fraction",
    );

    let recovers = &get("core.recover").durs_us;
    let (tail_pct, tail_us) = tail(recovers);
    put("core.recoveries", recovers.len() as f64, "count");
    put("core.recover_us_p50", median(recovers), "us");
    put("core.recover_us_tail", tail_us, "us");
    put("core.recover_tail_pct", tail_pct, "pct");
    put("classify.us_p50", median(&get("classify").durs_us), "us");

    let (dbg, debug_busy_ns) = aggregate(input.debug);
    let dget = |n: &str| dbg.get(n).unwrap_or(&empty);
    for span in DEBUG_LAYERS {
        put(
            &format!("{span}.share"),
            ratio(dget(span).self_ns as f64, debug_busy_ns as f64),
            "fraction",
        );
    }
    let reference = dget("hv.reference");
    put(
        "hv.reference.msteps_per_s",
        ratio(reference.steps as f64 * 1e3, reference.dur_ns as f64),
        "Msteps/s",
    );
    put(
        "record.replay_s",
        dget("record.replay").dur_ns as f64 / 1e9,
        "s",
    );
    let probes = &dget("bisect.probe").durs_us;
    put("bisect.probes", probes.len() as f64, "count");
    put("bisect.probe_ms_p50", median(probes) / 1e3, "ms");

    put("trace.trials", trials, "count");
    put(
        "trace.overhead",
        1.0 - ratio(input.untraced_wall_s, input.traced_wall_s),
        "fraction",
    );
    out
}

/// Writes spans as JSON lines: one object per span with its id, name,
/// start/end (ns since the traced run began), parent id, unit (cell or
/// record) name, trial index, steps and worker.
pub fn write_spans(
    path: &std::path::Path,
    phases: &[(&str, &[Span])],
    units: &[String],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (phase, spans) in phases {
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"phase\":\"{phase}\",\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"unit\":\"{}\",\"trial\":{},\"steps\":{},\"worker\":{}}}",
                s.name,
                s.start_ns,
                s.end_ns,
                escape(&units[s.key.unit as usize]),
                s.key.trial,
                s.steps,
                s.thread
            )?;
        }
    }
    w.flush()
}
