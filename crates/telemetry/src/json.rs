//! Hand-rolled JSON render/parse for the telemetry export.
//!
//! The workspace is hermetic (no serde), so the registry renders its own
//! JSON and reads it back with a minimal recursive-descent parser that
//! covers exactly the emitted subset: objects, arrays, strings without
//! escapes beyond `\"`/`\\`, and unsigned integers.

use crate::{Histogram, Metric, Registry, NONDETERMINISTIC_FAMILIES};

/// Render the deterministic metrics (everything outside the
/// `walltime/` and `sched/` families) as a stable, pretty-printed JSON
/// document.
pub fn render(reg: &Registry) -> String {
    let mut out = String::from("{\n  \"schema\": 1,\n  \"metrics\": [");
    let mut first = true;
    for (name, metric) in reg.iter() {
        if NONDETERMINISTIC_FAMILIES.iter().any(|f| name.starts_with(f)) {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    ");
        render_metric(&mut out, name, metric);
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

fn render_metric(out: &mut String, name: &str, metric: &Metric) {
    out.push_str(&format!("{{\"name\": {}, ", quote(name)));
    match metric {
        Metric::Counter(v) => {
            out.push_str(&format!("\"kind\": \"counter\", \"value\": {v}}}"));
        }
        Metric::Gauge(v) => {
            out.push_str(&format!("\"kind\": \"gauge\", \"value\": {v}}}"));
        }
        Metric::Histogram(h) => {
            out.push_str(&format!(
                "\"kind\": \"histogram\", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"buckets\": [",
                h.count, h.sum, h.min, h.max
            ));
            let mut first = true;
            for (&b, &n) in &h.buckets {
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("[{b}, {n}]"));
            }
            out.push_str("]}");
        }
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse a document produced by [`render`] back into a registry.
pub fn parse(text: &str) -> Result<Registry, String> {
    let value = Parser { bytes: text.as_bytes(), pos: 0 }.document()?;
    let metrics = value
        .field("metrics")
        .ok_or("missing `metrics` array")?
        .as_array()
        .ok_or("`metrics` is not an array")?;
    let mut reg = Registry::new();
    for m in metrics {
        let name =
            m.field("name").and_then(Json::as_str).ok_or("metric missing `name`")?.to_string();
        let kind = m.field("kind").and_then(Json::as_str).ok_or("metric missing `kind`")?;
        let metric = match kind {
            "counter" => Metric::Counter(num_field(m, "value")?),
            "gauge" => Metric::Gauge(num_field(m, "value")?),
            "histogram" => {
                let mut h = Histogram {
                    count: num_field(m, "count")?,
                    sum: num_field(m, "sum")?,
                    min: num_field(m, "min")?,
                    max: num_field(m, "max")?,
                    buckets: Default::default(),
                };
                let buckets = m
                    .field("buckets")
                    .and_then(Json::as_array)
                    .ok_or("histogram missing `buckets`")?;
                for pair in buckets {
                    let pair = pair.as_array().ok_or("bucket entry is not a pair")?;
                    if pair.len() != 2 {
                        return Err("bucket entry is not a pair".into());
                    }
                    let b = pair[0].as_num().ok_or("bucket index not a number")?;
                    let n = pair[1].as_num().ok_or("bucket count not a number")?;
                    h.buckets.insert(u32::try_from(b).map_err(|e| e.to_string())?, n);
                }
                Metric::Histogram(h)
            }
            other => return Err(format!("unknown metric kind `{other}`")),
        };
        reg.insert(&name, metric);
    }
    Ok(reg)
}

fn num_field(m: &Json, name: &str) -> Result<u64, String> {
    m.field(name).and_then(Json::as_num).ok_or_else(|| format!("metric missing numeric `{name}`"))
}

enum Json {
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn field(&self, name: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_num(&self) -> Option<u64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn document(mut self) -> Result<Json, String> {
        let v = self.value()?;
        self.skip_ws();
        if self.pos != self.bytes.len() {
            return Err(format!("trailing data at byte {}", self.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\n' || b == b'\t' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(got) if got == b => {
                self.pos += 1;
                Ok(())
            }
            got => Err(format!("expected `{}` at byte {}, got {got:?}", b as char, self.pos)),
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'0'..=b'9') => self.number(),
            got => Err(format!("unexpected {got:?} at byte {}", self.pos)),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                got => return Err(format!("expected `,` or `}}`, got {got:?}")),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                got => return Err(format!("expected `,` or `]`, got {got:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.bytes.get(self.pos) {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    match self.bytes.get(self.pos + 1) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    self.pos += 2;
                }
                Some(&b) => {
                    // Metric names are ASCII by convention, but pass
                    // non-ASCII bytes through rather than corrupting them.
                    let s = &self.bytes[self.pos..];
                    let ch_len = match b {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let chunk = s.get(..ch_len).ok_or("truncated string")?;
                    out.push_str(std::str::from_utf8(chunk).map_err(|e| e.to_string())?);
                    self.pos += ch_len;
                }
                None => return Err("unterminated string".into()),
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while matches!(self.bytes.get(self.pos), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(format!("expected number at byte {start}"));
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
        text.parse::<u64>().map(Json::Num).map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        let mut reg = Registry::new();
        let mut s = reg.scope("netsim");
        s.add("probes", 42);
        s.gauge_max("queue_peak", 17);
        s.observe("rtt_us", 0);
        s.observe("rtt_us", 900);
        s.observe("rtt_us", 70_000);
        reg.scope("bench").record_wall_secs("build", 0.25);
        reg
    }

    #[test]
    fn round_trip_preserves_deterministic_metrics() {
        let reg = sample();
        let json = reg.to_json();
        let back = Registry::from_json(&json).unwrap();
        // walltime/ was excluded on render, so compare against a copy
        // without it.
        let expect: Vec<(&str, &Metric)> = reg
            .iter()
            .filter(|(name, _)| !NONDETERMINISTIC_FAMILIES.iter().any(|f| name.starts_with(f)))
            .collect();
        assert_eq!(back.iter().collect::<Vec<_>>(), expect);
        // And the re-render is byte-identical: schema is stable.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn render_shape_is_stable() {
        let json = sample().to_json();
        assert!(json.starts_with("{\n  \"schema\": 1,\n  \"metrics\": ["), "{json}");
        assert!(json.contains("\"kind\": \"counter\", \"value\": 42"), "{json}");
        assert!(json.contains("\"kind\": \"gauge\", \"value\": 17"), "{json}");
        assert!(json.contains("\"buckets\": [[0, 1], [10, 1], [17, 1]]"), "{json}");
        assert!(json.ends_with("]\n}\n"), "{json}");
    }

    #[test]
    fn empty_registry_renders_and_parses() {
        let json = Registry::new().to_json();
        assert_eq!(json, "{\n  \"schema\": 1,\n  \"metrics\": []\n}\n");
        assert!(Registry::from_json(&json).unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Registry::from_json("").is_err());
        assert!(Registry::from_json("{\"schema\": 1}").is_err());
        assert!(Registry::from_json("{\"metrics\": [{\"name\": \"x\"}]}").is_err());
        assert!(Registry::from_json("{\"metrics\": []} trailing").is_err());
    }

    #[test]
    fn names_with_quotes_round_trip() {
        let mut reg = Registry::new();
        reg.scope("odd\"name\\x").add("c", 1);
        let back = Registry::from_json(&reg.to_json()).unwrap();
        assert_eq!(back.counter("odd\"name\\x/c"), Some(1));
    }
}
