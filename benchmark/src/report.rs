//! Results: what a run measured, how it is printed and stored, and how
//! two stored sets are compared.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats::{median, spread};
use std::collections::BTreeMap;
use std::path::Path;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// The per-window values `value` is the median of; empty for a
    /// single measurement.
    pub windows: Vec<f64>,
    /// Raw samples behind the value, where it is a quantile or a mean.
    pub samples: Option<u64>,
}

impl Metric {
    pub fn single(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            windows: Vec::new(),
            samples: None,
        }
    }

    /// The median of one value per window.
    pub fn of_windows(name: impl Into<String>, unit: &'static str, windows: Vec<f64>) -> Metric {
        Metric {
            name: name.into(),
            value: median(&windows),
            unit,
            windows,
            samples: None,
        }
    }

    pub fn with_samples(mut self, samples: u64) -> Metric {
        self.samples = Some(samples);
        self
    }

    /// `(max − min) / median` over the windows: the metric's own noise
    /// floor in this run.
    pub fn spread(&self) -> Option<f64> {
        (self.windows.len() > 1).then(|| spread(&self.windows))
    }

    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::str(self.unit)),
        ];
        if let Some(s) = self.spread() {
            fields.push(("spread", Json::Num(s)));
            fields.push((
                "windows",
                Json::Arr(self.windows.iter().map(|&w| Json::Num(w)).collect()),
            ));
        }
        if let Some(n) = self.samples {
            fields.push(("samples", Json::Num(n as f64)));
        }
        if let Some(gate) = spec::end_to_end(&self.name) {
            fields.push(("better", Json::str(gate.better.as_str())));
            fields.push(("bound", Json::Num(gate.bound)));
        }
        Json::obj(fields)
    }
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations and checks attempted, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Free-text facts a reader needs beside the numbers.
    pub notes: Vec<String>,
    /// Non-numeric results (digests).
    pub text: Vec<(String, String)>,
}

impl Report {
    pub fn push(&mut self, metric: Metric) {
        assert!(
            self.get(&metric.name).is_none(),
            "metric {} reported twice",
            metric.name
        );
        self.metrics.push(metric);
    }

    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(f64::NAN, |m| m.value)
    }

    /// One check of the correctness gate: counts as an attempted
    /// operation and, when it does not hold, as a failed one.
    pub fn check(&mut self, holds: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !holds {
            self.failed += 1;
            self.notes.push(format!("FAILED: {}", what()));
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// The identity of a run, stored with its results.
#[derive(Debug, Clone)]
pub struct RunInfo {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub threads: usize,
    pub traced: bool,
    pub smoke: bool,
}

/// The results file: every metric with its unit, windows and bound.
pub fn results_json(info: &RunInfo, report: &Report) -> Json {
    let mut fields = vec![
        ("schema", Json::Num(1.0)),
        ("workload", Json::str(&info.workload)),
        ("seed", Json::Num(info.seed as f64)),
        ("seconds", Json::Num(info.seconds)),
        ("threads", Json::Num(info.threads as f64)),
        ("traced", Json::Bool(info.traced)),
        ("smoke", Json::Bool(info.smoke)),
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "metrics",
            Json::Obj(
                report
                    .metrics
                    .iter()
                    .map(|m| (m.name.clone(), m.to_json()))
                    .collect(),
            ),
        ),
        (
            "notes",
            Json::Arr(report.notes.iter().map(Json::str).collect()),
        ),
    ];
    for (k, v) in &report.text {
        fields.push((k.as_str(), Json::str(v)));
    }
    Json::obj(fields)
}

/// Prints every metric by name with its unit, then the notes.
pub fn print_human(info: &RunInfo, report: &Report) {
    println!(
        "# {} seed={} seconds={} threads={}{}{}",
        info.workload,
        info.seed,
        info.seconds,
        info.threads,
        if info.traced { " traced" } else { "" },
        if info.smoke { " smoke" } else { "" },
    );
    for m in &report.metrics {
        let mut line = format!("{:<44} {:>16.6} {}", m.name, m.value, m.unit);
        if let Some(s) = m.spread() {
            line.push_str(&format!("  spread {:.1}%/{}w", s * 100.0, m.windows.len()));
        }
        if let Some(n) = m.samples {
            line.push_str(&format!("  n={n}"));
        }
        println!("{line}");
    }
    for (k, v) in &report.text {
        println!("{k} {v}");
    }
    for n in &report.notes {
        println!("# {n}");
    }
}

/// The driver's result line: `correct`, `attempted`, `failed` and the
/// named metrics, each of which the run must have produced.
///
/// # Errors
///
/// Names the first metric that is missing or not a finite number.
pub fn driver_line(report: &Report, names: &[&'static str]) -> Result<String, String> {
    let mut metrics = Vec::new();
    for &name in names {
        let m = report
            .get(name)
            .filter(|m| m.value.is_finite())
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.push((
            name,
            Json::obj(vec![
                ("value", Json::Num(m.value)),
                ("unit", Json::str(m.unit)),
            ]),
        ));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Num(report.attempted.max(1) as f64)),
        ("failed", Json::Num(report.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
    .encode())
}

/// Checks a results file against the schema `results_json` writes.
///
/// # Errors
///
/// Says what is missing or malformed.
pub fn check_schema(doc: &Json, required: &[&str]) -> Result<(), String> {
    for key in [
        "schema",
        "seed",
        "seconds",
        "threads",
        "attempted",
        "failed",
    ] {
        doc.get(key)
            .and_then(Json::as_f64)
            .ok_or(format!("missing number {key:?}"))?;
    }
    doc.get("workload")
        .and_then(Json::as_str)
        .ok_or("missing string \"workload\"")?;
    if doc.get("correct") != Some(&Json::Bool(true)) {
        return Err("\"correct\" is not true".into());
    }
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("missing object \"metrics\"")?;
    for (name, m) in metrics {
        let value = m.get("value").and_then(Json::as_f64);
        if !value.is_some_and(f64::is_finite) || m.get("unit").and_then(Json::as_str).is_none() {
            return Err(format!("metric {name:?} lacks a finite value or a unit"));
        }
    }
    for name in required {
        if !metrics.iter().any(|(k, _)| k == name) {
            return Err(format!("metric {name:?} is missing"));
        }
    }
    Ok(())
}

/// The bounded metrics of one workload over every run found for it.
#[derive(Debug, Default)]
struct Gathered {
    runs: usize,
    all_correct: bool,
    /// metric → (one value per run, lower is better, bound)
    metrics: BTreeMap<String, (Vec<f64>, bool, f64)>,
}

/// Reads every `<workload>.json` in `dir` and in its immediate
/// subdirectories (one per pass), grouped by workload.
fn load_set(dir: &Path) -> Result<BTreeMap<String, Gathered>, String> {
    let list = |d: &Path| -> Result<Vec<std::path::PathBuf>, String> {
        let entries = std::fs::read_dir(d).map_err(|e| format!("{}: {e}", d.display()))?;
        Ok(entries.flatten().map(|e| e.path()).collect())
    };
    let mut files = Vec::new();
    for path in list(dir)? {
        if path.is_dir() {
            files.extend(list(&path)?);
        } else {
            files.push(path);
        }
    }
    let mut set: BTreeMap<String, Gathered> = BTreeMap::new();
    for path in files {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        // `<workload>.json` only: not the `.layers.json` of traced runs.
        let Some(workload) = name.strip_suffix(".json").filter(|w| !w.contains('.')) else {
            continue;
        };
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let g = set.entry(workload.to_string()).or_insert(Gathered {
            all_correct: true,
            ..Gathered::default()
        });
        g.runs += 1;
        g.all_correct &= doc.get("correct") == Some(&Json::Bool(true));
        for (metric, m) in doc.get("metrics").and_then(Json::as_object).unwrap_or(&[]) {
            if let (Some(value), Some(bound)) = (
                m.get("value").and_then(Json::as_f64),
                m.get("bound").and_then(Json::as_f64),
            ) {
                let lower = m.get("better").and_then(Json::as_str) == Some(Better::Lower.as_str());
                let entry = g
                    .metrics
                    .entry(metric.clone())
                    .or_insert((Vec::new(), lower, bound));
                entry.0.push(value);
            }
        }
    }
    if set.is_empty() {
        return Err(format!("{}: no results files", dir.display()));
    }
    Ok(set)
}

/// Compares two sets of results files: two copies of `benchmark/out/`,
/// or two directories holding one such copy per pass. Prints, per
/// (workload, metric), the median on each side, their ratio with its
/// base, and the bound; returns whether every pair is within its bound
/// both ways, every run was correct, and nothing is missing on a side.
///
/// # Errors
///
/// Fails if a directory cannot be read or a file does not parse.
pub fn compare(a_dir: &Path, b_dir: &Path) -> Result<bool, String> {
    let (a, b) = (load_set(a_dir)?, load_set(b_dir)?);
    let mut ok = true;
    println!(
        "{:<16} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "B/A", "bound"
    );
    let workloads: Vec<&String> = a
        .keys()
        .chain(b.keys().filter(|k| !a.contains_key(*k)))
        .collect();
    for w in workloads {
        let (Some(ga), Some(gb)) = (a.get(w), b.get(w)) else {
            println!("{w:<16} missing on one side");
            ok = false;
            continue;
        };
        if !(ga.all_correct && gb.all_correct) {
            println!("{w:<16} a run was not correct");
            ok = false;
        }
        for (name, (xs, lower_is_better, bound)) in &ga.metrics {
            let Some((ys, _, _)) = gb.metrics.get(name) else {
                println!("{w:<16} {name:<18} missing in B");
                ok = false;
                continue;
            };
            if xs.len() != ga.runs || ys.len() != gb.runs {
                println!("{w:<16} {name:<18} missing from some runs");
                ok = false;
            }
            let (x, y) = (median(xs), median(ys));
            // How much worse `other` is than `base`, as a share of
            // `base`: same code must agree in both directions.
            let worse = |base: f64, other: f64| {
                if *lower_is_better {
                    other / base - 1.0
                } else {
                    1.0 - other / base
                }
            };
            let within = worse(x, y) <= *bound && worse(y, x) <= *bound;
            ok &= within;
            println!(
                "{w:<16} {name:<18} {x:>14.4} {y:>14.4} {:>9.4} {bound:>7.2}  {}",
                y / x,
                if within { "ok" } else { "OUT OF BOUND" }
            );
        }
        for name in gb.metrics.keys().filter(|n| !ga.metrics.contains_key(*n)) {
            println!("{w:<16} {name:<18} missing in A");
            ok = false;
        }
        println!("{w:<16} {} run(s) in A, {} in B", ga.runs, gb.runs);
    }
    println!("# B/A has A as its base; bound = share of the base by which a metric may be worse");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> (RunInfo, Report) {
        let mut report = Report::default();
        report.push(
            Metric::of_windows("ops_per_s", "1/s", vec![100.0, 110.0, 90.0]).with_samples(300),
        );
        report.push(Metric::single("setup_s", 0.75, "s"));
        report.push(Metric::single("store.flush_ms", 12.5, "ms"));
        report.check(true, || unreachable!());
        report
            .text
            .push(("sim_results_digest".into(), "00ff".into()));
        let info = RunInfo {
            workload: "healthy-small".into(),
            seed: 7,
            seconds: 12.0,
            threads: 2,
            traced: false,
            smoke: false,
        };
        (info, report)
    }

    #[test]
    fn emitted_json_parses_back() {
        let (info, report) = sample_report();
        let doc = results_json(&info, &report);
        let back = Json::parse(&doc.encode()).unwrap();
        assert_eq!(back, doc);
        check_schema(&back, &["ops_per_s", "setup_s"]).unwrap();
        assert!(check_schema(&back, &["read_p50_us"]).is_err());
        let ops = back.get("metrics").unwrap().get("ops_per_s").unwrap();
        assert_eq!(ops.get("value").unwrap().as_f64(), Some(100.0));
        assert_eq!(ops.get("spread").unwrap().as_f64(), Some(0.2));
        assert_eq!(ops.get("bound").unwrap().as_f64(), Some(0.25));
        assert_eq!(ops.get("samples").unwrap().as_f64(), Some(300.0));
        let flush = back.get("metrics").unwrap().get("store.flush_ms").unwrap();
        assert!(flush.get("bound").is_none(), "layer metrics carry no bound");

        let line = driver_line(&report, &["ops_per_s", "setup_s"]).unwrap();
        let parsed = Json::parse(&line).unwrap();
        let keys: Vec<&str> = parsed
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(driver_line(&report, &["read_p50_us"]).is_err());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let (info, mut report) = sample_report();
        assert!(report.correct());
        report.check(false, || "parity mismatch".into());
        assert!(!report.correct());
        assert_eq!((report.attempted, report.failed), (2, 1));
        let doc = results_json(&info, &report);
        assert!(check_schema(&doc, &[]).is_err());
    }

    #[test]
    fn compare_flags_regressions_and_missing_results() {
        // Inside the package: the benchmark writes nowhere else.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-compare-{}", std::process::id()));
        let write = |set: &str, ops: f64, with_setup: bool| {
            let dir = root.join(set);
            std::fs::create_dir_all(&dir).unwrap();
            let (info, mut report) = sample_report();
            report.metrics[0] = Metric::single("ops_per_s", ops, "1/s");
            if !with_setup {
                report.metrics.remove(1);
            }
            std::fs::write(
                dir.join("healthy-small.json"),
                results_json(&info, &report).encode(),
            )
            .unwrap();
            std::fs::write(dir.join("healthy-small.layers.json"), "not read").unwrap();
            dir
        };
        let base = write("a", 100.0, true);
        assert!(compare(&base, &write("b", 90.0, true)).unwrap());
        assert!(
            !compare(&base, &write("c", 70.0, true)).unwrap(),
            "30 % slower"
        );
        assert!(
            !compare(&base, &write("d", 140.0, true)).unwrap(),
            "same code must agree both ways"
        );
        assert!(
            !compare(&base, &write("e", 100.0, false)).unwrap(),
            "setup_s missing in B"
        );
        assert!(compare(&base, &root.join("nowhere")).is_err());
        // Several passes per side: the medians are compared.
        for (pass, ops) in [("p1", 60.0), ("p2", 95.0), ("p3", 105.0)] {
            let from = write(&format!("tmp-{pass}"), ops, true);
            let to = root.join("many").join(pass);
            std::fs::create_dir_all(&to).unwrap();
            std::fs::rename(
                from.join("healthy-small.json"),
                to.join("healthy-small.json"),
            )
            .unwrap();
        }
        assert!(
            compare(&base, &root.join("many")).unwrap(),
            "median 95 vs 100"
        );
        std::fs::remove_dir_all(&root).unwrap();
    }
}
