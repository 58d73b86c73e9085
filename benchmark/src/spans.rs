//! Spans around the calls the benchmark makes into each layer. They stay
//! in memory during a rep and are written out once the run has ended, as
//! Chrome trace-event JSON (`chrome://tracing`, Perfetto).
//!
//! A span's name starts with the layer (crate) it enters, as in
//! `topology.build`; its self time is its duration minus the part its
//! child spans cover.

use simany_serve::json::Json;
use std::time::Instant;

/// One closed (or still open) span, times in ns since the rep began.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder of one rep.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
        self.spans.len() - 1
    }

    /// Close span `id` (which must be the innermost open one) and return
    /// its duration in ns.
    pub fn exit(&mut self, id: usize) -> u64 {
        assert_eq!(self.open.pop(), Some(id), "spans must nest");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns()
    }

    /// Every span recorded so far, in the order they were opened.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Total self time, in seconds, of the spans called `name`.
pub fn self_secs(spans: &[Span], name: &str) -> f64 {
    let own = self_times_ns(spans);
    spans
        .iter()
        .zip(&own)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e9)
        .sum()
}

/// Spans as the compact rows a rep hands to its parent process.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::Arr(vec![
                    Json::Str(s.name.clone()),
                    Json::Num(s.start_ns as f64),
                    Json::Num(s.end_ns as f64),
                    Json::Num(s.parent.map_or(-1.0, |p| p as f64)),
                ])
            })
            .collect(),
    )
}

/// Inverse of [`to_json`].
pub fn from_json(v: &Json) -> Option<Vec<Span>> {
    v.as_arr()?
        .iter()
        .map(|row| {
            let row = row.as_arr()?;
            let parent = row.get(3)?.as_f64()?;
            Some(Span {
                name: row.first()?.as_str()?.to_string(),
                start_ns: row.get(1)?.as_u64()?,
                end_ns: row.get(2)?.as_u64()?,
                parent: (parent >= 0.0).then_some(parent as usize),
            })
        })
        .collect()
}

/// Chrome trace-event JSON for the reps of one workload: one `pid` per
/// rep, complete (`"ph": "X"`) events in microseconds, the layer as the
/// category and the self time and parent as arguments.
pub fn chrome_trace(workload: &str, reps: &[Vec<Span>]) -> String {
    let mut events = Vec::new();
    for (rep, spans) in reps.iter().enumerate() {
        let own = self_times_ns(spans);
        for (s, own_ns) in spans.iter().zip(&own) {
            let layer = s.name.split('.').next().unwrap_or("");
            let parent = s.parent.map_or("", |p| spans[p].name.as_str());
            events.push(Json::Obj(vec![
                ("name".into(), Json::Str(s.name.clone())),
                ("cat".into(), Json::Str(layer.to_string())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), Json::Num(s.start_ns as f64 / 1e3)),
                ("dur".into(), Json::Num(s.dur_ns() as f64 / 1e3)),
                ("pid".into(), Json::Num(rep as f64)),
                ("tid".into(), Json::Num(0.0)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("workload".into(), Json::Str(workload.to_string())),
                        ("rep".into(), Json::Num(rep as f64)),
                        ("parent".into(), Json::Str(parent.to_string())),
                        ("self_us".into(), Json::Num(*own_ns as f64 / 1e3)),
                    ]),
                ),
            ]));
        }
    }
    Json::Obj(vec![("traceEvents".into(), Json::Arr(events))]).dump()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_round_trips() {
        let spans = vec![
            Span {
                name: "rep".into(),
                start_ns: 0,
                end_ns: 100,
                parent: None,
            },
            Span {
                name: "core.simulate".into(),
                start_ns: 10,
                end_ns: 70,
                parent: Some(0),
            },
            Span {
                name: "topology.build".into(),
                start_ns: 20,
                end_ns: 30,
                parent: Some(1),
            },
        ];
        assert_eq!(self_times_ns(&spans), vec![40, 50, 10]);
        assert_eq!(from_json(&to_json(&spans)), Some(spans.clone()));
        let trace = Json::parse(&chrome_trace("w", &[spans])).unwrap();
        assert_eq!(trace.get("traceEvents").unwrap().as_arr().unwrap().len(), 3);
    }
}
