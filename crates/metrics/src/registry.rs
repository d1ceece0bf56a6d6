//! The typed metric registry and its Prometheus text rendering.

use crate::fmt_f64;
use crate::hist::Histogram;

/// One registered metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A monotonically accumulated count.
    Counter(u64),
    /// An instantaneous (last-written) value.
    Gauge(f64),
    /// A value distribution.
    Histogram(Histogram),
}

impl Metric {
    /// The Prometheus `# TYPE` keyword for this metric.
    fn type_name(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct Entry {
    name: String,
    help: String,
    /// Pre-rendered `key="value",...` label pairs (may be empty).
    labels: String,
    metric: Metric,
}

/// An ordered collection of named metrics.
///
/// Registration order is preserved in the rendered output, so exports are
/// deterministic and golden-testable. Names must match the Prometheus
/// metric-name grammar; label values are escaped on registration.
///
/// # Example
///
/// ```
/// use sms_metrics::{Histogram, Metric, Registry};
///
/// let mut reg = Registry::new();
/// reg.counter("sms_rays_traced_total", "Primary rays traced", 42);
/// reg.gauge("sms_ipc", "Instructions per cycle", 1.5);
/// let mut h = Histogram::new();
/// h.record(3);
/// reg.histogram("sms_stack_depth", "Depth at push", h);
/// let text = reg.render_prometheus();
/// assert!(text.contains("sms_rays_traced_total 42"));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Registry {
    entries: Vec<Entry>,
    /// Labels applied to every subsequently registered metric.
    base_labels: String,
}

/// `true` iff `name` matches `[a-zA-Z_:][a-zA-Z0-9_:]*`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else { return false };
    let head = |c: char| c.is_ascii_alphabetic() || c == '_' || c == ':';
    head(first) && chars.all(|c| head(c) || c.is_ascii_digit())
}

impl Registry {
    /// An empty registry with no base labels.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Sets label pairs stamped onto every metric registered afterwards
    /// (e.g. `scene="SHIP"`, `config="RB_8+SH_8+SK+RA"`).
    pub fn set_base_labels(&mut self, pairs: &[(&str, &str)]) {
        self.base_labels = pairs
            .iter()
            .map(|(k, v)| {
                assert!(valid_metric_name(k), "invalid label name `{k}`");
                format!("{k}=\"{}\"", escape_label(v))
            })
            .collect::<Vec<_>>()
            .join(",");
    }

    fn push(&mut self, name: &str, help: &str, metric: Metric) {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        assert!(self.entries.iter().all(|e| e.name != name), "metric `{name}` registered twice");
        self.entries.push(Entry {
            name: name.to_owned(),
            help: help.to_owned(),
            labels: self.base_labels.clone(),
            metric,
        });
    }

    /// Registers one sample of a *labeled family*: the same name may be
    /// registered repeatedly with distinct label sets (e.g. one sample per
    /// backend), as long as every sample agrees on the metric type.
    /// Rendering emits the family's `# HELP`/`# TYPE` header once; new
    /// samples are inserted directly after their family so a family's
    /// samples stay contiguous no matter when they were registered.
    fn push_labeled(&mut self, name: &str, help: &str, extra: &[(&str, &str)], metric: Metric) {
        assert!(valid_metric_name(name), "invalid metric name `{name}`");
        let mut labels = self.base_labels.clone();
        for (k, v) in extra {
            assert!(valid_metric_name(k), "invalid label name `{k}`");
            if !labels.is_empty() {
                labels.push(',');
            }
            labels.push_str(&format!("{k}=\"{}\"", escape_label(v)));
        }
        let mut insert_at = self.entries.len();
        for (i, e) in self.entries.iter().enumerate() {
            if e.name == name {
                assert!(
                    e.metric.type_name() == metric.type_name(),
                    "metric `{name}` re-registered as a {} (was a {})",
                    metric.type_name(),
                    e.metric.type_name()
                );
                assert!(
                    e.labels != labels,
                    "metric `{name}` with labels `{{{labels}}}` registered twice"
                );
                insert_at = i + 1;
            }
        }
        self.entries.insert(
            insert_at,
            Entry { name: name.to_owned(), help: help.to_owned(), labels, metric },
        );
    }

    /// Registers a counter.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.push(name, help, Metric::Counter(value));
    }

    /// Registers a gauge.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.push(name, help, Metric::Gauge(value));
    }

    /// Registers one counter sample of a labeled family: the name may repeat
    /// with distinct label sets, and the family renders under one header
    /// with its samples contiguous.
    pub fn labeled_counter(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: u64) {
        self.push_labeled(name, help, labels, Metric::Counter(value));
    }

    /// Registers one gauge sample of a labeled family, as
    /// [`Registry::labeled_counter`] does a counter.
    pub fn labeled_gauge(&mut self, name: &str, help: &str, labels: &[(&str, &str)], value: f64) {
        self.push_labeled(name, help, labels, Metric::Gauge(value));
    }

    /// Registers a histogram.
    pub fn histogram(&mut self, name: &str, help: &str, hist: Histogram) {
        self.push(name, help, Metric::Histogram(hist));
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.entries.iter().find(|e| e.name == name).map(|e| &e.metric)
    }

    /// Renders the registry in Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, then samples, in registration order).
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, e) in self.entries.iter().enumerate() {
            // One HELP/TYPE header per family: labeled samples after the
            // first reuse the header (duplicate TYPE lines are invalid).
            if self.entries[..i].iter().all(|p| p.name != e.name) {
                let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
                let _ = writeln!(out, "# TYPE {} {}", e.name, e.metric.type_name());
            }
            let braces =
                if e.labels.is_empty() { String::new() } else { format!("{{{}}}", e.labels) };
            match &e.metric {
                Metric::Counter(v) => {
                    let _ = writeln!(out, "{}{braces} {v}", e.name);
                }
                Metric::Gauge(v) => {
                    let _ = writeln!(out, "{}{braces} {}", e.name, fmt_f64(*v));
                }
                Metric::Histogram(h) => h.render_prometheus(&e.name, &e.labels, &mut out),
            }
        }
        out
    }
}

/// Escapes a label value per the exposition format (`\`, `"`, newline).
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_in_registration_order_with_labels() {
        let mut reg = Registry::new();
        reg.set_base_labels(&[("scene", "SHIP"), ("config", "RB_8+SH_8")]);
        reg.counter("sms_spills_total", "Global spills", 7);
        reg.gauge("sms_ipc", "IPC", 0.5);
        let text = reg.render_prometheus();
        let expected = "# HELP sms_spills_total Global spills\n\
                        # TYPE sms_spills_total counter\n\
                        sms_spills_total{scene=\"SHIP\",config=\"RB_8+SH_8\"} 7\n\
                        # HELP sms_ipc IPC\n\
                        # TYPE sms_ipc gauge\n\
                        sms_ipc{scene=\"SHIP\",config=\"RB_8+SH_8\"} 0.5\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn histogram_renders_cumulative_buckets() {
        let mut reg = Registry::new();
        let mut h = Histogram::new();
        h.record_n(2, 3);
        h.record(5);
        reg.histogram("sms_depth", "Depth", h);
        let text = reg.render_prometheus();
        let expected = "# HELP sms_depth Depth\n\
                        # TYPE sms_depth histogram\n\
                        sms_depth_bucket{le=\"2\"} 3\n\
                        sms_depth_bucket{le=\"5\"} 4\n\
                        sms_depth_bucket{le=\"+Inf\"} 4\n\
                        sms_depth_sum 11\n\
                        sms_depth_count 4\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn name_validation() {
        assert!(valid_metric_name("sms_ipc"));
        assert!(valid_metric_name("_x:y9"));
        assert!(!valid_metric_name(""));
        assert!(!valid_metric_name("9x"));
        assert!(!valid_metric_name("a-b"));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_names_rejected() {
        let mut reg = Registry::new();
        reg.counter("x", "one", 1);
        reg.counter("x", "two", 2);
    }

    #[test]
    fn labeled_family_renders_one_header_and_groups_samples() {
        let mut reg = Registry::new();
        reg.labeled_gauge("sms_up", "Backend liveness", &[("backend", "a")], 1.0);
        reg.counter("sms_other_total", "Unrelated", 9);
        // Registered after the unrelated metric, but rendered inside the
        // family block.
        reg.labeled_gauge("sms_up", "Backend liveness", &[("backend", "b")], 0.0);
        let text = reg.render_prometheus();
        let expected = "# HELP sms_up Backend liveness\n\
                        # TYPE sms_up gauge\n\
                        sms_up{backend=\"a\"} 1\n\
                        sms_up{backend=\"b\"} 0\n\
                        # HELP sms_other_total Unrelated\n\
                        # TYPE sms_other_total counter\n\
                        sms_other_total 9\n";
        assert_eq!(text, expected);
        assert_eq!(reg.len(), 3);
    }

    #[test]
    fn labeled_family_composes_with_base_labels() {
        let mut reg = Registry::new();
        reg.set_base_labels(&[("cluster", "fleet0")]);
        reg.labeled_counter("sms_retries_total", "Retries", &[("backend", "a:1")], 4);
        let text = reg.render_prometheus();
        assert!(text.contains("sms_retries_total{cluster=\"fleet0\",backend=\"a:1\"} 4\n"));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn labeled_duplicate_label_sets_rejected() {
        let mut reg = Registry::new();
        reg.labeled_counter("x_total", "x", &[("backend", "a")], 1);
        reg.labeled_counter("x_total", "x", &[("backend", "a")], 2);
    }

    #[test]
    #[should_panic(expected = "re-registered as a gauge")]
    fn labeled_type_conflicts_rejected() {
        let mut reg = Registry::new();
        reg.labeled_counter("x_total", "x", &[("backend", "a")], 1);
        reg.labeled_gauge("x_total", "x", &[("backend", "b")], 2.0);
    }
}
