//! Distributed-tracing context: Dapper-style request correlation across
//! client → fleet → backend → simulator.
//!
//! A [`TraceContext`] names one node in a request's span tree: the
//! `trace_id` shared by every span the request ever touches, this node's
//! own `span_id`, and the `parent` span it hangs under. The context rides
//! the wire as the `x-sms-trace` request header (`<trace>-<span>`, two
//! 16-digit lowercase hex u64s); the receiver parses it and parents its
//! own spans under the sender's span id.
//!
//! Tracing is strictly opt-in: the client only attaches the header when
//! `SMS_TRACE_CTX` is set, and the fleet/backend only record span events
//! for requests that carry the header — so with tracing disarmed every
//! journal, stat, and cache entry is byte-identical to an untraced run.
//! IDs are generated from wall clock + PID + a process counter (never from
//! simulation state), so tracing cannot perturb determinism.

use sms_sim::Env;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// The request header that carries the context on the wire.
pub const TRACE_HEADER: &str = "x-sms-trace";

/// One node in a request's span tree. See the module docs for semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Shared by every span of one request, end to end.
    pub trace_id: u64,
    /// This node's own span id (never 0).
    pub span_id: u64,
    /// The span this node hangs under; `None` for a root.
    pub parent: Option<u64>,
}

/// A fresh, hard-to-collide id: wall clock, PID, and a process-wide
/// counter folded through SplitMix64. Not cryptographic — collision
/// resistance at fleet-smoke scale is all tracing needs.
fn fresh_id() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let now = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seed = now
        ^ (u64::from(std::process::id()) << 32)
        ^ COUNTER.fetch_add(1, Ordering::Relaxed).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    // SplitMix64 finalizer.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    let id = z ^ (z >> 31);
    // A span id of 0 is reserved as "absent" by the schema.
    if id == 0 {
        1
    } else {
        id
    }
}

impl TraceContext {
    /// A brand-new root context (fresh trace id, fresh span id, no
    /// parent).
    pub fn root() -> Self {
        TraceContext { trace_id: fresh_id(), span_id: fresh_id(), parent: None }
    }

    /// A child context under `self`: same trace, fresh span id, parented
    /// on this node's span.
    pub fn child(&self) -> Self {
        TraceContext { trace_id: self.trace_id, span_id: fresh_id(), parent: Some(self.span_id) }
    }

    /// The client-side arming knob. `SMS_TRACE_CTX=1` (or `auto`) mints a
    /// fresh root; an explicit `<trace>-<span>` value adopts that exact
    /// context (which is what lets a CI smoke pick a known id and find it
    /// again in the merged timeline). Unset or malformed → `None` (off).
    pub fn from_env(env: &Env) -> Option<Self> {
        let raw = env.text("SMS_TRACE_CTX")?;
        if raw == "1" || raw.eq_ignore_ascii_case("auto") {
            return Some(TraceContext::root());
        }
        let ctx = TraceContext::parse(raw);
        if ctx.is_none() {
            let expected = "`1`, `auto`, or `<trace>-<span>` (16 hex digits each)";
            let msg =
                format!("SMS_TRACE_CTX: expected {expected}, got `{raw}` — tracing stays off");
            crate::log::warn("trace", &msg, &[]);
        }
        ctx
    }

    /// Parses the wire form `<trace>-<span>`. The parsed context has no
    /// parent of its own — the receiver *is* the parent for whatever spans
    /// it opens underneath.
    pub fn parse(header: &str) -> Option<Self> {
        let (t, s) = header.trim().split_once('-')?;
        // Digits checked by hand, lowercase only (W3C trace-context's
        // `HEXDIGLC`): `from_str_radix` also accepts a leading `+` and
        // `A`–`F`, which `header_value()` would not reproduce.
        let is_id =
            |id: &str| id.len() == 16 && id.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        if !is_id(t) || !is_id(s) {
            return None;
        }
        let trace_id = u64::from_str_radix(t, 16).ok()?;
        let span_id = u64::from_str_radix(s, 16).ok()?;
        if span_id == 0 {
            return None;
        }
        Some(TraceContext { trace_id, span_id, parent: None })
    }

    /// The wire form for the `x-sms-trace` header.
    pub fn header_value(&self) -> String {
        format!("{:016x}-{:016x}", self.trace_id, self.span_id)
    }

    /// The trace id as 16 lowercase hex digits (the span-event field
    /// form).
    pub fn trace_hex(&self) -> String {
        format!("{:016x}", self.trace_id)
    }

    /// The span id as 16 lowercase hex digits.
    pub fn span_hex(&self) -> String {
        format!("{:016x}", self.span_id)
    }

    /// The parent span id as 16 lowercase hex digits, if any.
    pub fn parent_hex(&self) -> Option<String> {
        self.parent.map(|p| format!("{p:016x}"))
    }
}

impl fmt::Display for TraceContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.header_value())
    }
}

/// Wall-clock microseconds since the Unix epoch — the timebase every span
/// event uses, so spans from different processes line up in one merged
/// timeline.
pub fn wall_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let ctx = TraceContext { trace_id: 0x00c0_ffee_5eed_1234, span_id: 0x1, parent: None };
        assert_eq!(ctx.header_value(), "00c0ffee5eed1234-0000000000000001");
        let parsed = TraceContext::parse(&ctx.header_value()).unwrap();
        assert_eq!(parsed.trace_id, ctx.trace_id);
        assert_eq!(parsed.span_id, ctx.span_id);
        assert_eq!(parsed.parent, None);
    }

    #[test]
    fn parse_rejects_malformed() {
        assert_eq!(TraceContext::parse(""), None);
        assert_eq!(TraceContext::parse("deadbeef"), None);
        assert_eq!(TraceContext::parse("deadbeef-cafebabe"), None); // too short
        assert_eq!(TraceContext::parse("00c0ffee5eed1234-000000000000000g"), None);
        assert_eq!(TraceContext::parse("00c0ffee5eed1234-0000000000000000"), None); // span 0
        assert_eq!(TraceContext::parse("00000000c0ffee42-0000000000000000"), None);
        assert_eq!(TraceContext::parse("+00000000c0ffee4-0000000000000001"), None); // sign
        assert_eq!(TraceContext::parse("00000000c0ffee42-+000000000000001"), None);
    }

    #[test]
    fn uppercase_digits_are_refused() {
        // Accepting them would hand the client its trace id back re-cased.
        assert_eq!(TraceContext::parse("00C0FFEE5EED1234-0000000000000001"), None);
        assert_eq!(TraceContext::parse("00c0ffee5eed1234-000000000000000A"), None);
    }

    #[test]
    fn an_accepted_header_is_the_header_value_of_its_parse() {
        use sms_sim::geom::check::for_cases;
        for_cases(2_000, 47, |g| {
            let mut ctx = || TraceContext {
                trace_id: g.rng.next_u64(),
                span_id: g.rng.next_u64(),
                parent: None,
            };
            let (mut bytes, other) = (ctx().header_value().into_bytes(), ctx().header_value());
            // Up to three of: a bit flip, a truncation, a splice of another
            // header's tail with separators and a sign, a case flip.
            for _ in 0..g.int(0, 3) {
                let at = g.int(0, bytes.len());
                match g.int(0, 3) {
                    0 if at < bytes.len() => bytes[at] ^= 1 << g.int(0, 7),
                    1 => bytes.truncate(at),
                    2 => {
                        let from = g.int(0, other.len());
                        let piece = [&other.as_bytes()[from..], b" \t-+"].concat();
                        let len = g.int(0, piece.len());
                        bytes.splice(at..at, piece[..len].iter().copied());
                    }
                    _ if at < bytes.len() => {
                        bytes[at] ^= 0x20 * u8::from(bytes[at].is_ascii_alphabetic())
                    }
                    _ => {}
                }
            }
            let header = String::from_utf8_lossy(&bytes);
            if let Some(parsed) = TraceContext::parse(&header) {
                assert_eq!(parsed.header_value(), header.trim(), "{header:?}");
            }
        });
    }

    #[test]
    fn child_shares_trace_and_parents_correctly() {
        let root = TraceContext::root();
        let child = root.child();
        assert_eq!(child.trace_id, root.trace_id);
        assert_ne!(child.span_id, root.span_id);
        assert_eq!(child.parent, Some(root.span_id));
        assert_ne!(child.span_id, 0);
    }

    #[test]
    fn ids_are_distinct_across_calls() {
        let a = TraceContext::root();
        let b = TraceContext::root();
        assert_ne!((a.trace_id, a.span_id), (b.trace_id, b.span_id));
    }
}
