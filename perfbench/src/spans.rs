//! Span-tree analysis of one traced pass: durations, self times and
//! recorded counts, from the events an `obs` registry buffered.

use obs::{Event, EventKind, FieldValue, SpanId};
use std::collections::BTreeMap;

#[derive(Debug)]
pub struct SpanRec {
    pub name: &'static str,
    pub parent: SpanId,
    enter_ns: u64,
    exit_ns: u64,
    fields: Vec<(&'static str, FieldValue)>,
    child_ns: u64,
}

impl SpanRec {
    pub fn secs(&self) -> f64 {
        (self.exit_ns - self.enter_ns) as f64 * 1e-9
    }

    /// Duration minus the time its child spans cover.
    pub fn self_secs(&self) -> f64 {
        (self.exit_ns - self.enter_ns).saturating_sub(self.child_ns) as f64 * 1e-9
    }

    /// An integer field recorded on entry or exit (0 when absent).
    pub fn u64(&self, key: &str) -> u64 {
        self.fields
            .iter()
            .find_map(|(k, v)| match v {
                FieldValue::U64(x) if *k == key => Some(*x),
                _ => None,
            })
            .unwrap_or(0)
    }

    /// A string field recorded on entry or exit.
    pub fn str(&self, key: &str) -> Option<&'static str> {
        self.fields.iter().find_map(|(k, v)| match v {
            FieldValue::Str(s) if *k == key => Some(*s),
            _ => None,
        })
    }
}

#[derive(Debug)]
pub struct SpanTree {
    pub spans: BTreeMap<SpanId, SpanRec>,
}

impl SpanTree {
    /// Drains the registry, validates the stream with
    /// [`obs::check::validate`] and builds the tree.
    pub fn drain(reg: &obs::Registry) -> Result<SpanTree, String> {
        if reg.dropped_events() > 0 {
            return Err(format!("{} trace events dropped", reg.dropped_events()));
        }
        let events = reg.drain_events();
        obs::check::validate(&events)?;
        Ok(SpanTree::from_events(&events))
    }

    fn from_events(events: &[Event]) -> SpanTree {
        let mut spans: BTreeMap<SpanId, SpanRec> = BTreeMap::new();
        for e in events {
            match e.kind {
                EventKind::Enter => {
                    spans.insert(
                        e.span,
                        SpanRec {
                            name: e.name,
                            parent: e.parent,
                            enter_ns: e.ts_ns,
                            exit_ns: e.ts_ns,
                            fields: e.fields.clone(),
                            child_ns: 0,
                        },
                    );
                }
                EventKind::Exit => {
                    let s = spans.get_mut(&e.span).expect("validated: exit after enter");
                    s.exit_ns = e.ts_ns;
                    s.fields.extend_from_slice(&e.fields);
                }
                EventKind::Instant => {}
            }
        }
        let child_time: Vec<(SpanId, u64)> = spans
            .values()
            .filter(|s| s.parent != 0)
            .map(|s| (s.parent, s.exit_ns - s.enter_ns))
            .collect();
        for (parent, ns) in child_time {
            if let Some(p) = spans.get_mut(&parent) {
                p.child_ns += ns;
            }
        }
        SpanTree { spans }
    }

    /// The nearest ancestor (or the span itself) with the given name.
    pub fn ancestor(&self, mut id: SpanId, name: &str) -> Option<&SpanRec> {
        while let Some(s) = self.spans.get(&id) {
            if s.name == name {
                return Some(s);
            }
            id = s.parent;
        }
        None
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = (SpanId, &'a SpanRec)> + 'a {
        self.spans
            .iter()
            .filter(move |(_, s)| s.name == name)
            .map(|(id, s)| (*id, s))
    }
}
