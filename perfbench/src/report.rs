//! Process CPU time, order statistics and the JSON lines the benchmark
//! prints.

use std::fmt::Write as _;

/// User plus system CPU time of the whole process (every thread), seconds.
///
/// Read from fields 14 and 15 of `/proc/self/stat`, which count clock ticks
/// of `USER_HZ`; Linux fixes `USER_HZ` at 100 for this interface, so the
/// resolution is 10 ms.
pub fn process_cpu_seconds() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // Field 2 (the command name) is parenthesised and may hold spaces, so
    // count fields from the closing parenthesis: field 3 is index 0 there.
    let (_, rest) = stat.rsplit_once(')').ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |index: usize| -> Result<u64, String> {
        fields
            .get(index)
            .and_then(|f| f.parse::<u64>().ok())
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", index + 3))
    };
    let utime = ticks(11)?;
    let stime = ticks(12)?;
    Ok((utime + stime) as f64 / 100.0)
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The `q` quantile of ascending `sorted`, interpolating linearly between
/// the two nearest ranks.  Returns 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `values` (any order).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// `num / den`, or 0 when there is nothing to divide by (a stage that did
/// not run on this workload).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One named measurement with its unit.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self { name, value, unit }
    }
}

/// The result line: the last line the benchmark prints on stdout.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        // `{}` prints the shortest decimal that reads back as the same f64:
        // every digit as measured.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, value, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A flat JSON object of string and number fields, for the run metadata
/// line.
#[derive(Debug, Default)]
pub struct JsonObject {
    body: String,
}

impl JsonObject {
    fn key(&mut self, key: &str) {
        if !self.body.is_empty() {
            self.body.push_str(", ");
        }
        let _ = write!(self.body, "\"{key}\": ");
    }

    pub fn str(mut self, key: &str, value: &str) -> Self {
        self.key(key);
        let _ = write!(self.body, "\"{value}\"");
        self
    }

    pub fn num(mut self, key: &str, value: f64) -> Self {
        self.key(key);
        let value = if value.is_finite() { value } else { 0.0 };
        let _ = write!(self.body, "{value}");
        self
    }

    pub fn obj(mut self, key: &str, value: JsonObject) -> Self {
        self.key(key);
        let _ = write!(self.body, "{value}");
        self
    }
}

impl std::fmt::Display for JsonObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}}}", self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_like_numpy_linear() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.5) - 2.5).abs() < 1e-12);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_line(true, 3, 0, &[Metric::new("fps", 1.25, "1/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"fps\": {\"value\": 1.25, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn cpu_time_is_readable_and_monotonic() {
        let a = process_cpu_seconds().expect("procfs");
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let b = process_cpu_seconds().expect("procfs");
        assert!(b >= a);
    }
}
