//! Reads the Prometheus text a server's `GET /metrics` returns.
//!
//! Only what the benchmark needs: sample lines `name[{labels}] value`.
//! Comment lines are skipped; a sample line that does not parse is an
//! error, because a silently dropped counter would read as zero.

/// One scrape: every sample line, in order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Scrape {
    samples: Vec<Sample>,
}

#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    /// The raw text between the braces, empty when there are none.
    labels: String,
    value: f64,
}

impl Scrape {
    pub fn parse(body: &str) -> Result<Scrape, String> {
        let mut samples = Vec::new();
        for line in body.lines().map(str::trim).filter(|l| !l.is_empty() && !l.starts_with('#')) {
            let (series, value) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("metrics line without value: `{line}`"))?;
            let value: f64 =
                value.parse().map_err(|_| format!("metrics line with bad value: `{line}`"))?;
            let (name, labels) = match series.split_once('{') {
                Some((name, rest)) => (
                    name,
                    rest.strip_suffix('}')
                        .ok_or_else(|| format!("metrics line with open label set: `{line}`"))?,
                ),
                None => (series, ""),
            };
            samples.push(Sample { name: name.to_owned(), labels: labels.to_owned(), value });
        }
        Ok(Scrape { samples })
    }

    /// The sum of every series of the family `name` (one value for an
    /// unlabelled counter; the total over backends for a labelled one).
    /// A family that is absent reads 0.
    pub fn total(&self, name: &str) -> f64 {
        self.samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
    }

    /// Every series of a labelled family as `(label text, value)`.
    pub fn series(&self, name: &str) -> Vec<(&str, f64)> {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.labels.as_str(), s.value))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SERVE: &str = include_str!("../tests/fixtures/serve_metrics.txt");
    const FLEET: &str = include_str!("../tests/fixtures/fleet_metrics.txt");

    #[test]
    fn reads_a_captured_backend_body() {
        let s = Scrape::parse(SERVE).unwrap();
        assert_eq!(s.total("sms_serve_jobs_total"), 19.0);
        assert_eq!(s.total("sms_serve_cache_hits_total"), 8.0);
        assert_eq!(s.total("sms_serve_cache_misses_total"), 11.0);
        assert_eq!(s.total("sms_serve_job_latency_us_sum"), 6_489_435.0);
        assert_eq!(s.total("sms_serve_job_latency_us_count"), 19.0);
        assert_eq!(s.total("sms_serve_shed_total"), 0.0);
        assert_eq!(s.series("sms_serve_singleflight_shared_total"), [("", 0.0)]);
        assert_eq!(s.total("sms_serve_absent_total"), 0.0);
        assert!(s.series("sms_serve_absent_total").is_empty());
    }

    #[test]
    fn reads_a_captured_fleet_body_with_labels() {
        let s = Scrape::parse(FLEET).unwrap();
        assert_eq!(s.total("sms_fleet_cells_total"), 32.0);
        assert_eq!(s.total("sms_fleet_cell_latency_us_sum"), 13_115_290.0);
        let jobs = s.series("sms_fleet_backend_jobs_total");
        assert_eq!(jobs.len(), 2);
        assert_eq!(jobs[0], ("backend=\"127.0.0.1:36333\"", 19.0));
        assert_eq!(s.total("sms_fleet_backend_jobs_total"), 32.0);
        for family in [
            "sms_fleet_hedges_total",
            "sms_fleet_retries_total",
            "sms_fleet_steals_total",
            "sms_fleet_breaker_opens_total",
            "sms_fleet_cells_failed_total",
        ] {
            assert_eq!(
                s.series(family),
                [("", 0.0)],
                "{family} is part of the pinned wire surface"
            );
        }
    }

    #[test]
    fn malformed_sample_lines_are_errors() {
        assert!(Scrape::parse("sms_serve_jobs_total").is_err());
        assert!(Scrape::parse("sms_serve_jobs_total twelve").is_err());
        assert!(Scrape::parse("sms_x{backend=\"a\" 3").is_err());
        assert_eq!(Scrape::parse("# HELP only comments\n\n").unwrap(), Scrape::default());
    }
}
