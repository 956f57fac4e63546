//! `gencon-bench diff BASE NEW` and `gencon-bench baseline ROWS...`.
//!
//! Both read result rows — the JSON lines `run --out` appends; `diff`
//! also reads a `baseline.json`, whose `rows` array holds them — and
//! refuse `--smoke` rows, which only check that the harness works.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::{quote, Json};
use crate::spec::{self, Better, Kind};
use crate::stats::{median, quartiles};

/// One untraced or traced run of one workload.
struct Row {
    workload: String,
    traced: bool,
    correct: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, f64>,
}

fn load_rows(path: &str) -> Result<Vec<Row>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    parse_rows(path, &text)
}

/// Rows from JSON lines, or from a baseline document's `rows`; `path`
/// only labels errors.
fn parse_rows(path: &str, text: &str) -> Result<Vec<Row>, String> {
    let values: Vec<Json> = match Json::parse(text) {
        Ok(doc) if doc.get("rows").is_some() => doc
            .get("rows")
            .map(|r| r.arr().to_vec())
            .unwrap_or_default(),
        _ => text
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(|l| Json::parse(l).map_err(|e| format!("{path}: {e}")))
            .collect::<Result<_, _>>()?,
    };
    values.iter().map(|v| row(path, v)).collect()
}

fn row(path: &str, v: &Json) -> Result<Row, String> {
    if v.get("smoke") == Some(&Json::Bool(true)) {
        return Err(format!(
            "{path}: holds --smoke rows, which are never results"
        ));
    }
    let metrics = v
        .get("metrics")
        .map(|m| {
            m.fields()
                .iter()
                .filter_map(|(k, x)| x.get("value").and_then(Json::f64).map(|f| (k.clone(), f)))
                .collect()
        })
        .unwrap_or_default();
    Ok(Row {
        workload: v
            .get("workload")
            .and_then(Json::str)
            .ok_or(format!("{path}: a row without a workload"))?
            .to_string(),
        traced: v.num("trace") != 0.0,
        correct: v.get("correct") == Some(&Json::Bool(true)),
        attempted: v.num("attempted"),
        failed: v.num("failed"),
        metrics,
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Regressed,
    Unresolved,
    Unchanged,
}

/// The verdict for one (workload, metric) pair of run sets.
///
/// * improved — NEW wins at least 9/10 of all (base, new) run pairs
///   (ties count for neither) and the medians differ by more than BASE's
///   interquartile range;
/// * regressed — NEW's median is worse than BASE's by more than `bound`
///   (a share of BASE's median; an absolute amount when `absolute`);
/// * unresolved — either side's spread (IQR over median) exceeds the
///   bound and not every NEW run beats every BASE run;
/// * unchanged — otherwise.
pub fn verdict(base: &[f64], new: &[f64], better: Better, bound: f64, absolute: bool) -> Verdict {
    let (mb, mn) = (median(base), median(new));
    let worse_by = match better {
        Better::Lower => mn - mb,
        Better::Higher => mb - mn,
    };
    let limit = if absolute { bound } else { bound * mb.abs() };
    if worse_by > limit {
        return Verdict::Regressed;
    }
    let wins = |n: f64, b: f64| match better {
        Better::Lower => n < b,
        Better::Higher => n > b,
    };
    let pairs = (base.len() * new.len()) as f64;
    let won = new
        .iter()
        .flat_map(|&n| base.iter().map(move |&b| (n, b)))
        .filter(|&(n, b)| wins(n, b))
        .count() as f64;
    let (q1, q3) = quartiles(base);
    if pairs > 0.0 && won >= 0.9 * pairs && (mn - mb).abs() > q3 - q1 {
        return Verdict::Improved;
    }
    let spread = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        let m = median(v).abs();
        if absolute {
            q3 - q1
        } else if m > 0.0 {
            (q3 - q1) / m
        } else {
            0.0
        }
    };
    let all_beat = won == pairs && pairs > 0.0;
    if (spread(base) > bound || spread(new) > bound) && !all_beat {
        return Verdict::Unresolved;
    }
    Verdict::Unchanged
}

pub fn diff_cmd(args: &[String]) -> Result<ExitCode, String> {
    let [base_path, new_path] = args else {
        return Err("usage: gencon-bench diff BASE NEW".into());
    };
    let base = load_rows(base_path)?;
    let new = load_rows(new_path)?;
    let mut regressions = 0;
    for w in spec::WORKLOADS {
        let (b, n) = (untraced(&base, w.name), untraced(&new, w.name));
        if b.is_empty() || n.is_empty() {
            continue;
        }
        println!("{} ({} base runs, {} new runs)", w.name, b.len(), n.len());
        for m in spec::METRICS {
            let Kind::EndToEnd { bound } = m.kind else {
                continue;
            };
            let values = |rows: &[&Row]| {
                rows.iter()
                    .filter_map(|r| r.metrics.get(m.name).copied())
                    .collect::<Vec<_>>()
            };
            let (bv, nv) = (values(&b), values(&n));
            if bv.is_empty() || nv.is_empty() {
                continue;
            }
            let v = verdict(&bv, &nv, m.better, bound, false);
            regressions += usize::from(v == Verdict::Regressed);
            print_pair(m.name, m.unit, &bv, &nv, v);
        }
        // fail_frac: an absolute bound, and any rise of the pooled share
        // fails the diff.
        let fracs = |rows: &[&Row]| {
            rows.iter()
                .map(|r| r.failed / r.attempted.max(1.0))
                .collect::<Vec<_>>()
        };
        let v = verdict(
            &fracs(&b),
            &fracs(&n),
            Better::Lower,
            spec::FAIL_FRAC_BOUND,
            true,
        );
        print_pair("fail_frac", "ratio", &fracs(&b), &fracs(&n), v);
        let pooled = |rows: &[&Row]| {
            rows.iter().map(|r| r.failed).sum::<f64>()
                / rows.iter().map(|r| r.attempted).sum::<f64>().max(1.0)
        };
        if v == Verdict::Regressed || pooled(&n) > pooled(&b) {
            regressions += 1;
        }
    }
    Ok(if regressions == 0 {
        ExitCode::SUCCESS
    } else {
        println!("{regressions} regression(s)");
        ExitCode::FAILURE
    })
}

fn untraced<'a>(rows: &'a [Row], workload: &str) -> Vec<&'a Row> {
    rows.iter()
        .filter(|r| r.workload == workload && !r.traced)
        .collect()
}

fn print_pair(name: &str, unit: &str, base: &[f64], new: &[f64], v: Verdict) {
    let (bq1, bq3) = quartiles(base);
    let (nq1, nq3) = quartiles(new);
    println!(
        "  {name:<14} base {:.4} [{bq1:.4}, {bq3:.4}]  new {:.4} [{nq1:.4}, {nq3:.4}] {unit}  -> {v:?}",
        median(base),
        median(new)
    );
}

/// Summarises JSON-lines result files as `baseline.json`: per workload
/// and run kind, every metric's per-trial values, median and quartiles,
/// plus the machine, and the rows themselves (what `diff` reads).
pub fn baseline_cmd(paths: &[String]) -> Result<ExitCode, String> {
    if paths.is_empty() {
        return Err("usage: gencon-bench baseline ROWS...".into());
    }
    let mut rows = Vec::new();
    let mut raw = Vec::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let v = Json::parse(line).map_err(|e| format!("{path}: {e}"))?;
            rows.push(row(path, &v)?);
            raw.push(line.to_string());
        }
    }
    let mut workloads = Vec::new();
    for w in spec::WORKLOADS {
        let mut kinds = Vec::new();
        for (label, traced) in [("untraced", false), ("traced", true)] {
            let set: Vec<&Row> = rows
                .iter()
                .filter(|r| r.workload == w.name && r.traced == traced)
                .collect();
            if set.is_empty() {
                continue;
            }
            let mut names: Vec<&String> = set.iter().flat_map(|r| r.metrics.keys()).collect();
            names.sort();
            names.dedup();
            let metrics: Vec<String> =
                names
                    .iter()
                    .map(|name| {
                        let values: Vec<f64> = set
                            .iter()
                            .filter_map(|r| r.metrics.get(*name).copied())
                            .collect();
                        let (q1, q3) = quartiles(&values);
                        let unit = spec::metric(name).map_or("", |m| m.unit);
                        format!(
                        "{}:{{\"unit\":{},\"values\":[{}],\"median\":{},\"q1\":{q1},\"q3\":{q3}}}",
                        quote(name),
                        quote(unit),
                        values.iter().map(f64::to_string).collect::<Vec<_>>().join(","),
                        median(&values)
                    )
                    })
                    .collect();
            // Runs that failed a correctness gate stay in the record.
            let failed_runs = set.iter().filter(|r| !r.correct).count();
            kinds.push(format!(
                "{}:{{\"runs\":{},\"failed_runs\":{failed_runs},\"metrics\":{{{}}}}}",
                quote(label),
                set.len(),
                metrics.join(",")
            ));
        }
        if !kinds.is_empty() {
            workloads.push(format!("{}:{{{}}}", quote(w.name), kinds.join(",")));
        }
    }
    println!(
        "{{\"machine\":{},\"workloads\":{{{}}},\"rows\":[\n{}\n]}}",
        machine_json(),
        workloads.join(","),
        raw.join(",\n")
    );
    Ok(ExitCode::SUCCESS)
}

fn machine_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZero::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!("{{\"nproc\":{nproc},\"cpu\":{}}}", quote(&cpu))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diff_verdicts_on_synthetic_sets() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Same distribution: unchanged.
        assert_eq!(
            verdict(
                &base,
                &[100.2, 99.8, 100.9, 99.1, 100.0],
                Better::Higher,
                0.10,
                false
            ),
            Verdict::Unchanged
        );
        // Throughput 20% down: regressed.
        assert_eq!(
            verdict(
                &base,
                &[80.0, 81.0, 79.0, 80.5, 79.5],
                Better::Higher,
                0.10,
                false
            ),
            Verdict::Regressed
        );
        // Every new run 5% up, well past the base IQR: improved.
        assert_eq!(
            verdict(
                &base,
                &[105.0, 106.0, 104.0, 105.5, 104.5],
                Better::Higher,
                0.10,
                false
            ),
            Verdict::Improved
        );
        // Lower-is-better latency 5% down: improved too.
        assert_eq!(
            verdict(
                &base,
                &[95.0, 96.0, 94.0, 95.5, 94.5],
                Better::Lower,
                0.10,
                false
            ),
            Verdict::Improved
        );
        // Wide spread on one side, no clear win: unresolved.
        assert_eq!(
            verdict(
                &base,
                &[70.0, 130.0, 100.0, 85.0, 120.0],
                Better::Higher,
                0.10,
                false
            ),
            Verdict::Unresolved
        );
        // A 2% shift inside a wide base spread: not an improvement.
        let wide = [90.0, 110.0, 100.0, 95.0, 105.0];
        assert_eq!(
            verdict(
                &wide,
                &[102.0, 112.0, 101.0, 97.0, 107.0],
                Better::Higher,
                0.25,
                false
            ),
            Verdict::Unchanged
        );
        // fail_frac: absolute bound.
        assert_eq!(
            verdict(&[0.0; 5], &[0.0005; 5], Better::Lower, 0.001, true),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&[0.0; 5], &[0.002; 5], Better::Lower, 0.001, true),
            Verdict::Regressed
        );
    }

    #[test]
    fn smoke_rows_are_refused() {
        let row = "{\"workload\":\"kv-small-mem\",\"trace\":0,\"smoke\":false,\"metrics\":{}}";
        assert_eq!(parse_rows("rows", row).unwrap().len(), 1);
        let smoke = row.replace("false", "true");
        let err = parse_rows("rows", &smoke).err().unwrap();
        assert!(err.contains("smoke"), "{err}");
        let baseline = format!("{{\"machine\":{{}},\"rows\":[{smoke}]}}");
        assert!(parse_rows("baseline", &baseline).is_err());
    }

    /// `BENCHMARK.json` names exactly the workloads and metrics this
    /// binary defines (its listed workloads), with the same units,
    /// directions and bounds.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the package"))
                .unwrap();
        let workloads: Vec<(&str, &str)> = doc
            .get("workloads")
            .unwrap()
            .arr()
            .iter()
            .map(|w| {
                (
                    w.get("name").unwrap().str().unwrap(),
                    w.get("why").unwrap().str().unwrap(),
                )
            })
            .collect();
        let ours: Vec<(&str, &str)> = spec::WORKLOADS
            .iter()
            .filter(|w| w.listed)
            .map(|w| (w.name, w.why))
            .collect();
        assert_eq!(workloads, ours);
        for (key, want_e2e) in [("end_to_end", true), ("per_layer", false)] {
            let listed: Vec<String> = doc
                .get(key)
                .unwrap()
                .arr()
                .iter()
                .map(|m| {
                    let name = m.get("name").unwrap().str().unwrap();
                    let ours = spec::metric(name)
                        .unwrap_or_else(|| panic!("{name} is not a metric of the binary"));
                    assert_eq!(m.get("unit").unwrap().str(), Some(ours.unit), "{name}");
                    assert_eq!(
                        m.get("better").unwrap().str(),
                        Some(ours.better.as_str()),
                        "{name}"
                    );
                    match ours.kind {
                        Kind::EndToEnd { bound } => {
                            assert!(want_e2e, "{name} listed under {key}");
                            assert_eq!(m.get("bound").unwrap().f64(), Some(bound), "{name}");
                        }
                        Kind::Layer => assert!(
                            !want_e2e && m.get("bound").is_none(),
                            "{name} listed under {key}"
                        ),
                        Kind::Diagnostic => panic!("{name} is a diagnostic, not listed"),
                    }
                    name.to_string()
                })
                .collect();
            let defined: Vec<String> = spec::METRICS
                .iter()
                .filter(|m| match m.kind {
                    Kind::EndToEnd { .. } => want_e2e,
                    Kind::Layer => !want_e2e,
                    Kind::Diagnostic => false,
                })
                .map(|m| m.name.to_string())
                .collect();
            assert_eq!(listed, defined, "{key}");
        }
    }
}
