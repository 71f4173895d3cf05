//! The Prometheus text-exposition sink and a tiny validating parser.
//!
//! [`render`] turns a [`Snapshot`] into the classic `# TYPE` + sample
//! lines format. Histograms expose cumulative `_bucket{le="..."}` series
//! plus `_sum` and `_count`, with the mandatory `+Inf` bucket.
//! [`validate_exposition`] is the consumer-side check: CI runs it over
//! `metrics.prom` so a malformed exposition fails the build rather than
//! a scrape.

use crate::metric::bucket_upper_bound;
use crate::registry::{SampleValue, Snapshot};
use std::fmt::Write as _;

/// Render a snapshot in the Prometheus text exposition format. Output is
/// deterministic: metrics appear in sorted-key order, each name preceded
/// by one `# TYPE` line.
pub fn render(snapshot: &Snapshot) -> String {
    let mut out = String::with_capacity(snapshot.samples.len() * 64);
    let mut last_typed: Option<&str> = None;
    for (key, value) in &snapshot.samples {
        let kind = match value {
            SampleValue::Counter(_) => "counter",
            SampleValue::Gauge(_) => "gauge",
            SampleValue::Histogram(_) => "histogram",
        };
        if last_typed != Some(key.name.as_str()) {
            let _ = writeln!(out, "# TYPE {} {}", key.name, kind);
            last_typed = Some(key.name.as_str());
        }
        match value {
            SampleValue::Counter(v) => {
                write_sample(&mut out, &key.name, &key.labels, None, &v.to_string());
            }
            SampleValue::Gauge(v) => {
                write_sample(&mut out, &key.name, &key.labels, None, &format_f64(*v));
            }
            SampleValue::Histogram(h) => {
                let mut cumulative = 0u64;
                for (i, &c) in h.buckets.iter().enumerate() {
                    cumulative += c;
                    // Only emit buckets up to the highest non-empty one;
                    // the +Inf bucket always closes the series.
                    if c == 0 && Some(i) > h.max_bucket() {
                        break;
                    }
                    let le = bucket_upper_bound(i);
                    let le_str = if le == u64::MAX {
                        continue; // folded into +Inf below
                    } else {
                        le.to_string()
                    };
                    write_sample(
                        &mut out,
                        &format!("{}_bucket", key.name),
                        &key.labels,
                        Some(("le", &le_str)),
                        &cumulative.to_string(),
                    );
                }
                let count = h.count();
                write_sample(
                    &mut out,
                    &format!("{}_bucket", key.name),
                    &key.labels,
                    Some(("le", "+Inf")),
                    &count.to_string(),
                );
                write_sample(
                    &mut out,
                    &format!("{}_sum", key.name),
                    &key.labels,
                    None,
                    &h.sum.to_string(),
                );
                write_sample(
                    &mut out,
                    &format!("{}_count", key.name),
                    &key.labels,
                    None,
                    &count.to_string(),
                );
            }
        }
    }
    out
}

fn format_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn write_sample(
    out: &mut String,
    name: &str,
    labels: &[(String, String)],
    extra: Option<(&str, &str)>,
    value: &str,
) {
    out.push_str(name);
    let has_labels = !labels.is_empty() || extra.is_some();
    if has_labels {
        out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        if let Some((k, v)) = extra {
            if !first {
                out.push(',');
            }
            let _ = write!(out, "{k}=\"{}\"", escape_label(v));
        }
        out.push('}');
    }
    out.push(' ');
    out.push_str(value);
    out.push('\n');
}

/// Escape a label value per the exposition format: backslash, double
/// quote, and newline become `\\`, `\"`, and `\n`.
pub(crate) fn escape_label(v: &str) -> String {
    let mut s = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => s.push_str("\\\\"),
            '"' => s.push_str("\\\""),
            '\n' => s.push_str("\\n"),
            c => s.push(c),
        }
    }
    s
}

/// Validate a text exposition: every non-comment, non-blank line must be
/// `name{labels} value` with a well-formed name, balanced braces, quoted
/// label values, and a parseable value. Returns the number of sample
/// lines, and requires at least one — an empty exposition is a failure
/// (that is the CI gate's whole point).
pub fn validate_exposition(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        validate_sample_line(line).map_err(|e| format!("line {}: {e}: {line:?}", lineno + 1))?;
        samples += 1;
    }
    if samples == 0 {
        return Err("exposition contains no samples".to_string());
    }
    Ok(samples)
}

fn validate_sample_line(line: &str) -> Result<(), String> {
    let bytes = line.as_bytes();
    let mut i = 0;
    // Metric name: [a-zA-Z_:][a-zA-Z0-9_:]*
    if !matches!(bytes.first(), Some(b) if b.is_ascii_alphabetic() || *b == b'_' || *b == b':') {
        return Err("bad metric name start".to_string());
    }
    while i < bytes.len()
        && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_' || bytes[i] == b':')
    {
        i += 1;
    }
    // Optional label block.
    if i < bytes.len() && bytes[i] == b'{' {
        i += 1;
        loop {
            if i >= bytes.len() {
                return Err("unterminated label block".to_string());
            }
            if bytes[i] == b'}' {
                i += 1;
                break;
            }
            // Label name.
            let name_start = i;
            while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'_') {
                i += 1;
            }
            if i == name_start {
                return Err("empty label name".to_string());
            }
            if i >= bytes.len() || bytes[i] != b'=' {
                return Err("expected '=' after label name".to_string());
            }
            i += 1;
            if i >= bytes.len() || bytes[i] != b'"' {
                return Err("expected quoted label value".to_string());
            }
            i += 1;
            // Quoted value with backslash escapes.
            loop {
                match bytes.get(i) {
                    None => return Err("unterminated label value".to_string()),
                    Some(b'"') => {
                        i += 1;
                        break;
                    }
                    Some(b'\\') => i += 2,
                    Some(_) => i += 1,
                }
            }
            match bytes.get(i) {
                Some(b',') => i += 1,
                Some(b'}') => {}
                _ => return Err("expected ',' or '}' after label".to_string()),
            }
        }
    }
    // Mandatory space then value.
    if i >= bytes.len() || bytes[i] != b' ' {
        return Err("expected space before value".to_string());
    }
    let value = line[i + 1..].trim();
    if value.is_empty() {
        return Err("missing value".to_string());
    }
    let ok = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
    if !ok {
        return Err(format!("unparseable value {value:?}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    /// Invert [`escape_label`]. Unknown escape sequences keep their literal
    /// character (matching how Prometheus itself reads them), so this is
    /// total: `unescape_label(escape_label(v)) == v` for every `v`.
    fn unescape_label(v: &str) -> String {
        let mut s = String::with_capacity(v.len());
        let mut chars = v.chars();
        while let Some(c) = chars.next() {
            if c != '\\' {
                s.push(c);
                continue;
            }
            match chars.next() {
                Some('\\') => s.push('\\'),
                Some('"') => s.push('"'),
                Some('n') => s.push('\n'),
                Some(other) => s.push(other),
                None => s.push('\\'),
            }
        }
        s
    }

    #[test]
    fn golden_render() {
        let r = Registry::new();
        r.counter("abp_rules_evaluated_total").add(12);
        r.counter_with("adscope_stage_records_total", &[("stage", "extract")])
            .add(100);
        r.gauge("netsim_read_throughput_rps").set(2.5);
        let h = r.histogram("abp_first_match_depth");
        h.record(0);
        h.record(3);
        h.record(3);
        let got = r.render_prometheus();
        let want = "\
# TYPE abp_first_match_depth histogram
abp_first_match_depth_bucket{le=\"0\"} 1
abp_first_match_depth_bucket{le=\"1\"} 1
abp_first_match_depth_bucket{le=\"3\"} 3
abp_first_match_depth_bucket{le=\"+Inf\"} 3
abp_first_match_depth_sum 6
abp_first_match_depth_count 3
# TYPE abp_rules_evaluated_total counter
abp_rules_evaluated_total 12
# TYPE adscope_stage_records_total counter
adscope_stage_records_total{stage=\"extract\"} 100
# TYPE netsim_read_throughput_rps gauge
netsim_read_throughput_rps 2.5
";
        assert_eq!(got, want);
    }

    #[test]
    fn render_round_trips_through_validator() {
        let r = Registry::new();
        r.counter_with("c_total", &[("weird", "a\"b\\c\nd")]).inc();
        r.histogram("h_ns").record(u64::MAX);
        r.gauge("g").set(f64::INFINITY);
        let text = r.render_prometheus();
        let n = validate_exposition(&text).expect("valid exposition");
        assert!(n >= 4, "counter + bucket lines + sum + count, got {n}");
    }

    #[test]
    fn label_escaping_round_trips_exactly() {
        // Every escapable character, plus sequences the naive escaper
        // gets wrong (trailing backslash, backslash before quote).
        let values = [
            "plain",
            "a\"b\\c\nd",
            "\\",
            "\\\\",
            "\"",
            "\n\n",
            "ends with backslash\\",
            "\\\"mixed\"\\",
            "unicode → ok",
            "",
        ];
        for v in values {
            assert_eq!(unescape_label(&escape_label(v)), v, "value {v:?}");
        }

        // And through a full render: the escaped value sits on one line,
        // the exposition validates, and parsing the label back out of
        // the rendered text recovers the original byte-for-byte.
        let original = "a\"b\\c\nd ends\\";
        let r = Registry::new();
        r.counter_with("rt_total", &[("v", original)]).inc();
        let text = r.render_prometheus();
        validate_exposition(&text).expect("escaped exposition validates");
        let line = text
            .lines()
            .find(|l| l.starts_with("rt_total{"))
            .expect("sample line present");
        let start = line.find("v=\"").expect("label present") + 3;
        let end = line.rfind("\"}").expect("label closes");
        assert_eq!(unescape_label(&line[start..end]), original);
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_exposition("").is_err(), "empty is a failure");
        assert!(validate_exposition("# only comments\n").is_err());
        for bad in [
            "1leading_digit 5\n",
            "name{unclosed 5\n",
            "name{a=unquoted} 5\n",
            "name{a=\"x\"} notanumber\n",
            "name5\n",
            "name{a=\"x\" 5\n",
        ] {
            assert!(validate_exposition(bad).is_err(), "should reject {bad:?}");
        }
        assert_eq!(validate_exposition("x_total 5\ny{a=\"b\"} +Inf\n"), Ok(2));
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_close_with_inf() {
        let r = Registry::new();
        let h = r.histogram("d_ns");
        h.record(1);
        h.record(1000);
        let text = r.render_prometheus();
        let inf_line = text
            .lines()
            .find(|l| l.contains("le=\"+Inf\""))
            .expect("+Inf bucket present");
        assert!(inf_line.ends_with(" 2"));
        let count_line = text
            .lines()
            .find(|l| l.starts_with("d_ns_count"))
            .expect("count present");
        assert!(count_line.ends_with(" 2"));
    }
}
