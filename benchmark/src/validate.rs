//! Shape checks: `BENCHMARK.json` against the spec and the limits the
//! driver enforces, and a result line against the output contract.

use crate::json::Value;
use crate::spec;

const MAX_WORKLOADS: usize = 8;
const MAX_END_TO_END: usize = 16;
const MAX_PER_LAYER: usize = 128;
const MAX_NAME: usize = 64;
const MAX_UNIT: usize = 16;
const MAX_WHY: usize = 200;
const MAX_BOUND: f64 = 0.25;

/// Starts with a letter or digit; letters, digits, `_`, `.`, `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= MAX_NAME
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= MAX_UNIT
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn str_field<'a>(v: &'a Value, key: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("missing string \"{key}\""))
}

fn keys_are(v: &Value, expected: &[&str], what: &str) -> Result<(), String> {
    let keys: Vec<&str> = v
        .as_obj()
        .ok_or_else(|| format!("{what} is not an object"))?
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    let mut sorted = keys.clone();
    sorted.sort_unstable();
    let mut want = expected.to_vec();
    want.sort_unstable();
    if sorted == want {
        Ok(())
    } else {
        Err(format!("{what} has keys {keys:?}, expected {expected:?}"))
    }
}

/// Metric names listed under `key` (`end_to_end` or `per_layer`).
pub fn metric_names<'a>(manifest: &'a Value, key: &str) -> Vec<&'a str> {
    manifest
        .get(key)
        .and_then(Value::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.get("name").and_then(Value::as_str))
        .collect()
}

/// `BENCHMARK.json`: exactly the contract's keys, within its limits, and
/// naming exactly the workloads and metrics of the spec with the same
/// unit, direction and bound.
pub fn manifest(v: &Value) -> Result<(), String> {
    keys_are(
        v,
        &[
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer",
        ],
        "BENCHMARK.json",
    )?;
    let seconds = v.get("run_seconds").and_then(Value::as_f64).unwrap_or(0.0);
    if seconds.fract() != 0.0 || !(1.0..=60.0).contains(&seconds) {
        return Err("run_seconds must be a whole number from 1 to 60".into());
    }
    if seconds != spec::RUN_SECONDS {
        return Err("run_seconds differs from the spec".into());
    }

    let workloads = v.get("workloads").and_then(Value::as_arr).unwrap_or(&[]);
    if !(2..=MAX_WORKLOADS).contains(&workloads.len()) {
        return Err(format!("{} workloads", workloads.len()));
    }
    if workloads.len() != spec::WORKLOADS.len() {
        return Err("workloads differ from the spec".into());
    }
    for (w, (name, why)) in workloads.iter().zip(spec::WORKLOADS) {
        keys_are(w, &["name", "why"], "a workload")?;
        if str_field(w, "name")? != name || str_field(w, "why")? != why {
            return Err(format!("workload {name} differs from the spec"));
        }
        if !valid_name(name) || why.len() > MAX_WHY || why.contains('\n') {
            return Err(format!("workload {name}: bad name or why"));
        }
    }

    let mut seen: Vec<&'static str> = spec::WORKLOADS.iter().map(|w| w.0).collect();
    let mut check_metrics =
        |key: &str,
         max: usize,
         spec_rows: Vec<(&'static str, &'static str, spec::Better, Option<f64>)>|
         -> Result<(), String> {
            let metrics = v.get(key).and_then(Value::as_arr).unwrap_or(&[]);
            if metrics.is_empty() || metrics.len() > max {
                return Err(format!("{key} has {} metrics", metrics.len()));
            }
            if metrics.len() != spec_rows.len() {
                return Err(format!("{key} differs from the spec"));
            }
            for (m, (name, unit, better, bound)) in metrics.iter().zip(spec_rows) {
                let keys: &[&str] = if bound.is_some() {
                    &["name", "unit", "better", "bound"]
                } else {
                    &["name", "unit", "better"]
                };
                keys_are(m, keys, &format!("{key} metric {name}"))?;
                if str_field(m, "name")? != name
                    || str_field(m, "unit")? != unit
                    || str_field(m, "better")? != better.name()
                    || m.get("bound").and_then(Value::as_f64) != bound
                {
                    return Err(format!("{key} metric {name} differs from the spec"));
                }
                if !valid_name(name) || !valid_unit(unit) {
                    return Err(format!("{key} metric {name}: bad name or unit"));
                }
                if bound.is_some_and(|b| !(b > 0.0 && b <= MAX_BOUND)) {
                    return Err(format!("{key} metric {name}: bound out of range"));
                }
                if seen.contains(&name) {
                    return Err(format!("name {name} is used twice"));
                }
                seen.push(name);
            }
            Ok(())
        };
    check_metrics(
        "end_to_end",
        MAX_END_TO_END,
        spec::END_TO_END
            .iter()
            .map(|(n, u, b, bound)| (*n, *u, *b, Some(*bound)))
            .collect(),
    )?;
    check_metrics(
        "per_layer",
        MAX_PER_LAYER,
        spec::PER_LAYER
            .iter()
            .map(|(n, u, b)| (*n, *u, *b, None))
            .collect(),
    )?;
    if !spec::END_TO_END
        .iter()
        .any(|(n, u, b, _)| *n == "setup_s" && *u == "s" && *b == spec::Better::Lower)
    {
        return Err("end_to_end lacks setup_s".into());
    }
    Ok(())
}

/// A result line: exactly `correct`, `attempted`, `failed`, `metrics`,
/// each metric exactly `{value: number, unit: string}`.
pub fn result_shape(v: &Value) -> Result<(), String> {
    keys_are(
        v,
        &["correct", "attempted", "failed", "metrics"],
        "the result",
    )?;
    if v.get("correct").and_then(Value::as_bool).is_none() {
        return Err("correct is not a boolean".into());
    }
    let whole = |key: &str| {
        v.get(key)
            .and_then(Value::as_f64)
            .filter(|n| n.fract() == 0.0 && *n >= 0.0)
            .ok_or_else(|| format!("{key} is not a whole number"))
    };
    if whole("attempted")? < 1.0 {
        return Err("attempted is below 1".into());
    }
    whole("failed")?;
    for (name, m) in v.get("metrics").and_then(Value::as_obj).unwrap_or(&[]) {
        keys_are(m, &["value", "unit"], &format!("metric {name}"))?;
        if m.get("value").and_then(Value::as_f64).is_none() {
            return Err(format!("metric {name}: value is not a number"));
        }
        if spec::unit_of(name) != m.get("unit").and_then(Value::as_str) {
            return Err(format!("metric {name}: unknown name or wrong unit"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn spec_names_units_and_whys_respect_the_limits() {
        for (name, why) in spec::WORKLOADS {
            assert!(valid_name(name), "{name}");
            assert!(why.len() <= MAX_WHY && !why.contains('\n'), "{name}");
        }
        for (name, unit, ..) in spec::END_TO_END {
            assert!(valid_name(name) && valid_unit(unit), "{name}");
        }
        for (name, unit, _) in spec::PER_LAYER {
            assert!(valid_name(name) && valid_unit(unit), "{name}");
        }
        assert!(spec::WORKLOADS.len() <= MAX_WORKLOADS);
        assert!(spec::END_TO_END.len() <= MAX_END_TO_END);
        assert!(spec::PER_LAYER.len() <= MAX_PER_LAYER);
    }

    #[test]
    fn name_and_unit_rules() {
        assert!(valid_name("serve.latency_p95_ms.normal"));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("rows/s") && valid_unit("1/s") && valid_unit("%"));
        assert!(!valid_unit("") && !valid_unit("rows per s"));
    }

    #[test]
    fn the_committed_manifest_matches_the_spec() {
        let text = include_str!("../../BENCHMARK.json");
        manifest(&parse(text).unwrap()).unwrap();
    }

    #[test]
    fn result_shape_accepts_the_contract_example_and_rejects_extras() {
        let good = r#"{"correct": true, "attempted": 1000, "failed": 0, "metrics": {"latency_p50_ms": {"value": 1.2034, "unit": "ms"}, "setup_s": {"value": 0.8127, "unit": "s"}}}"#;
        result_shape(&parse(good).unwrap()).unwrap();
        let extra = r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {}, "note": 1}"#;
        assert!(result_shape(&parse(extra).unwrap()).is_err());
        let zero = r#"{"correct": true, "attempted": 0, "failed": 0, "metrics": {}}"#;
        assert!(result_shape(&parse(zero).unwrap()).is_err());
        let null = r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"setup_s": {"value": null, "unit": "s"}}}"#;
        assert!(result_shape(&parse(null).unwrap()).is_err());
        let unit = r#"{"correct": true, "attempted": 1, "failed": 0, "metrics": {"setup_s": {"value": 1, "unit": "ms"}}}"#;
        assert!(result_shape(&parse(unit).unwrap()).is_err());
    }
}
