//! The metric catalogue and the one-line JSON result.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the metrics `BENCHMARK.json`
//! declares (a unit test keeps the two in step). An untraced run
//! reports exactly the end-to-end set, a traced run exactly the
//! per-layer set; [`Report::render`] refuses anything else.

use std::collections::BTreeMap;

/// `(name, unit, better)` of one declared metric.
pub type Decl = (&'static str, &'static str, &'static str);

/// What a user of `sctool serve` sees; measured with tracing off.
pub const END_TO_END: &[Decl] = &[
    ("qps", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("server_rss_peak_mb", "MB", "lower"),
    ("passes_mean", "passes", "lower"),
    ("space_words_mean", "words", "lower"),
    ("cover_size_mean", "sets", "lower"),
];

/// One layer each; measured by the traced run.
pub const PER_LAYER: &[Decl] = &[
    ("request.latency_p90_ms", "ms", "lower"),
    ("request.latency_p99_ms", "ms", "lower"),
    ("tenants.cold_latency_p50_ms", "ms", "lower"),
    ("tenants.cold_latency_p90_ms", "ms", "lower"),
    ("server.cpu_ms_per_query", "ms", "lower"),
    ("net.frontdoor_p50_ms", "ms", "lower"),
    ("net.frontdoor_p90_ms", "ms", "lower"),
    ("net.shed", "count", "lower"),
    ("protocol.parse_ns", "ns", "lower"),
    ("protocol.render_ns", "ns", "lower"),
    ("service.queue_wait_p50_ms", "ms", "lower"),
    ("service.queue_wait_p90_ms", "ms", "lower"),
    ("alignment.mid_stream_admissions", "count", "higher"),
    ("alignment.aligned_joins", "count", "higher"),
    ("service.exec_p50_ms", "ms", "lower"),
    ("service.exec_p90_ms", "ms", "lower"),
    ("stream.physical_scans", "count", "lower"),
    ("stream.sharing_ratio", "passes/scan", "higher"),
    ("fairness.shard_grants", "count", "higher"),
    ("fairness.min_tenant_shard_grants", "count", "higher"),
    ("fairness.min_tenant_share", "ratio", "higher"),
    ("tenants.cold_queue_wait_p90_ms", "ms", "lower"),
    ("tenants.reload_ms", "ms", "lower"),
    ("tenants.generation_changes", "count", "higher"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.coalesced", "count", "higher"),
    ("cache.evictions", "count", "lower"),
    ("core.solo_iter_ms", "ms", "lower"),
    ("core.solo_partial_ms", "ms", "lower"),
    ("core.service_overhead_ratio", "ratio", "lower"),
    ("offline.greedy_ms", "ms", "lower"),
    ("bitset.kernel_calls_per_job", "calls/job", "lower"),
    ("setsystem.load_ms", "ms", "lower"),
    ("telemetry.scrape_ms", "ms", "lower"),
    (
        "telemetry.journal_events_per_query",
        "events/query",
        "lower",
    ),
    ("telemetry.overhead_ratio", "ratio", "lower"),
    ("loadgen.sent", "count", "higher"),
    ("loadgen.lag_p99_ms", "ms", "lower"),
    ("trace.overhead_p50_ms", "ms", "lower"),
];

/// `true` for a valid metric name: a letter or digit, then at most 63
/// letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// `true` for a valid unit: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The numbers of one run, keyed by metric name.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records `name = value`; a later call for the same name wins.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The value recorded for `name`, if any.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Renders the result line for the declared set `decls`.
    ///
    /// # Errors
    ///
    /// A declared metric is missing, not finite, or badly named, or a
    /// metric outside `decls` was recorded.
    pub fn render(
        &self,
        decls: &[Decl],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> Result<String, String> {
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !decls.iter().any(|(n, _, _)| n == *k))
        {
            return Err(format!("metric {extra:?} is not declared"));
        }
        let mut parts = Vec::with_capacity(decls.len());
        for &(name, unit, _) in decls {
            if !valid_name(name) || !valid_unit(unit) {
                return Err(format!(
                    "metric {name:?} ({unit:?}) has an invalid name or unit"
                ));
            }
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name:?} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name:?} is {value}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            parts.join(", ")
        ))
    }
}

/// Escapes `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declared_names_and_units_are_valid_and_unique() {
        for decls in [END_TO_END, PER_LAYER] {
            for (i, &(name, unit, better)) in decls.iter().enumerate() {
                assert!(valid_name(name), "{name}");
                assert!(valid_unit(unit), "{name}: {unit}");
                assert!(better == "lower" || better == "higher", "{name}");
                assert!(
                    !decls[..i].iter().any(|(n, _, _)| *n == name),
                    "{name} declared twice"
                );
            }
        }
        assert!(END_TO_END.contains(&("setup_s", "s", "lower")));
    }

    #[test]
    fn name_and_unit_validation() {
        assert!(valid_name("latency_p50_ms"));
        assert!(valid_name("net.frontdoor_p50_ms"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name("_lead"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/no"));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("1/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("seconds since epoch"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    /// `BENCHMARK.json` at the repository root lists exactly the
    /// catalogue above, in the same order, with the same units.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = include_str!("../../BENCHMARK.json");
        let section = |key: &str| -> Vec<(String, String, String)> {
            let start = json.find(&format!("\"{key}\"")).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.lines()
                .filter(|l| l.contains("\"name\""))
                .map(|l| {
                    let field = |k: &str| {
                        let at = l.find(&format!("\"{k}\": \"")).expect("field") + k.len() + 5;
                        l[at..at + l[at..].find('"').expect("quote")].to_string()
                    };
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let owned = |d: &[Decl]| -> Vec<(String, String, String)> {
            d.iter()
                .map(|&(n, u, b)| (n.into(), u.into(), b.into()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(END_TO_END));
        assert_eq!(section("per_layer"), owned(PER_LAYER));
    }

    #[test]
    fn render_checks_the_declared_set() {
        let decls: &[Decl] = &[("a", "ms", "lower"), ("b", "count", "higher")];
        let mut r = Report::default();
        r.set("a", 1.25);
        assert!(r.render(decls, true, 3, 0).unwrap_err().contains("\"b\""));
        r.set("b", 2.0);
        assert_eq!(
            r.render(decls, true, 3, 0).unwrap(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"count\"}}}"
        );
        r.set("c", 0.0);
        assert!(r.render(decls, true, 3, 0).is_err());
        let mut nan = Report::default();
        nan.set("a", f64::NAN);
        nan.set("b", 1.0);
        assert!(nan.render(decls, false, 1, 1).is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(
            json_str("Intel \"Xeon\"\\\n"),
            "\"Intel \\\"Xeon\\\"\\\\\\u000a\""
        );
    }
}
