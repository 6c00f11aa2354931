//! Hierarchical span timing with a pluggable subscriber.
//!
//! A [`Tracer`] hands out RAII [`Span`] guards; entering and leaving a
//! span notifies the [`Subscriber`] with the span's name, its nesting
//! depth on the current thread, and (on exit) the measured duration.
//! Depth is tracked per thread, so spans opened by concurrent requests
//! on different threads nest correctly without any shared state.
//!
//! A disabled tracer ([`Tracer::disabled`]) reduces a span to a single
//! branch: no clock reads, no thread-local traffic — the hot paths can be
//! instrumented unconditionally.

use crate::metrics::{Histogram, Registry};
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

thread_local! {
    /// Current span nesting depth on this thread.
    static DEPTH: Cell<usize> = const { Cell::new(0) };
}

/// Receives span lifecycle events. Implementations must be cheap: `on_exit`
/// runs on the hot path of whatever it instruments.
pub trait Subscriber: Send + Sync {
    /// A span named `name` was entered at nesting `depth` (0 = root).
    fn on_enter(&self, name: &'static str, depth: usize) {
        let _ = (name, depth);
    }

    /// The span exited after `elapsed`.
    fn on_exit(&self, name: &'static str, depth: usize, elapsed: Duration);
}

/// A handle that opens timing spans and reports them to a subscriber.
/// Cloning shares the subscriber.
#[derive(Clone, Default)]
pub struct Tracer {
    subscriber: Option<Arc<dyn Subscriber>>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.subscriber.is_some())
            .finish()
    }
}

impl Tracer {
    /// A tracer reporting to `subscriber`.
    #[must_use]
    pub fn new(subscriber: Arc<dyn Subscriber>) -> Tracer {
        Tracer {
            subscriber: Some(subscriber),
        }
    }

    /// A tracer that records nothing (spans cost one branch).
    #[must_use]
    pub fn disabled() -> Tracer {
        Tracer { subscriber: None }
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.subscriber.is_some()
    }

    /// Opens a span; the measurement ends when the guard drops.
    #[must_use]
    pub fn span(&self, name: &'static str) -> Span<'_> {
        match &self.subscriber {
            None => Span { active: None },
            Some(sub) => {
                let depth = DEPTH.with(|d| {
                    let depth = d.get();
                    d.set(depth + 1);
                    depth
                });
                sub.on_enter(name, depth);
                Span {
                    active: Some(ActiveSpan {
                        subscriber: sub,
                        name,
                        depth,
                        start: Instant::now(),
                    }),
                }
            }
        }
    }
}

struct ActiveSpan<'t> {
    subscriber: &'t Arc<dyn Subscriber>,
    name: &'static str,
    depth: usize,
    start: Instant,
}

/// An RAII span guard; reports its duration to the subscriber on drop.
pub struct Span<'t> {
    active: Option<ActiveSpan<'t>>,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(span) = self.active.take() {
            let elapsed = span.start.elapsed();
            DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
            span.subscriber.on_exit(span.name, span.depth, elapsed);
        }
    }
}

/// The default subscriber: folds every span's duration (in seconds) into
/// a `<prefix>.span.<name>` latency histogram of a [`Registry`]. Depth is
/// ignored — recursive spans of the same name aggregate together, which
/// is what a per-operator cost profile wants.
///
/// The histograms of the span names given at construction are resolved
/// once, so an exit records through a pre-registered handle with no
/// registry lookup. Any other name resolves through a lazy side map keyed
/// by the `&'static str` name: the formatted registry lookup happens once
/// per distinct name, not once per span.
pub struct RegistrySubscriber {
    registry: Arc<Registry>,
    prefix: &'static str,
    known: Box<[(&'static str, Arc<Histogram>)]>,
    other: Mutex<HashMap<&'static str, Arc<Histogram>>>,
}

impl RegistrySubscriber {
    /// A subscriber recording into `registry` under `prefix`, with the
    /// histograms of `names` registered up front (list the hottest first:
    /// an exit scans them in order).
    #[must_use]
    pub fn new(
        registry: Arc<Registry>,
        prefix: &'static str,
        names: &[&'static str],
    ) -> RegistrySubscriber {
        let known = names
            .iter()
            .map(|&name| (name, registry.histogram(&span_metric(prefix, name))))
            .collect();
        RegistrySubscriber {
            registry,
            prefix,
            known,
            other: Mutex::new(HashMap::new()),
        }
    }

    /// A ready-made tracer over this subscriber type.
    #[must_use]
    pub fn tracer(registry: Arc<Registry>, prefix: &'static str, names: &[&'static str]) -> Tracer {
        Tracer::new(Arc::new(RegistrySubscriber::new(registry, prefix, names)))
    }

    /// The histogram of a span name outside the up-front list.
    fn other(&self, name: &'static str) -> Arc<Histogram> {
        let mut other = self.other.lock().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(
            other
                .entry(name)
                .or_insert_with(|| self.registry.histogram(&span_metric(self.prefix, name))),
        )
    }
}

fn span_metric(prefix: &str, name: &str) -> String {
    format!("{prefix}.span.{name}")
}

impl Subscriber for RegistrySubscriber {
    fn on_exit(&self, name: &'static str, _depth: usize, elapsed: Duration) {
        match self.known.iter().find(|(n, _)| *n == name) {
            Some((_, h)) => h.record_duration(elapsed),
            None => self.other(name).record_duration(elapsed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recording {
        events: Mutex<Vec<(String, usize, bool)>>,
    }

    impl Subscriber for Recording {
        fn on_enter(&self, name: &'static str, depth: usize) {
            self.events
                .lock()
                .unwrap()
                .push((name.to_owned(), depth, false));
        }

        fn on_exit(&self, name: &'static str, depth: usize, _elapsed: Duration) {
            self.events
                .lock()
                .unwrap()
                .push((name.to_owned(), depth, true));
        }
    }

    #[test]
    fn spans_nest_and_report_depth() {
        let sub = Arc::new(Recording {
            events: Mutex::new(Vec::new()),
        });
        let tracer = Tracer::new(sub.clone());
        {
            let _outer = tracer.span("outer");
            let _inner = tracer.span("inner");
        }
        let events = sub.events.lock().unwrap();
        assert_eq!(
            *events,
            vec![
                ("outer".to_owned(), 0, false),
                ("inner".to_owned(), 1, false),
                ("inner".to_owned(), 1, true),
                ("outer".to_owned(), 0, true),
            ]
        );
    }

    #[test]
    fn disabled_tracer_records_nothing_and_keeps_depth_flat() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        {
            let _a = tracer.span("a");
            let _b = tracer.span("b");
        }
        DEPTH.with(|d| assert_eq!(d.get(), 0));
    }

    #[test]
    fn registry_subscriber_builds_span_histograms() {
        let registry = Arc::new(Registry::new());
        let tracer = RegistrySubscriber::tracer(registry.clone(), "engine", &["join"]);
        for _ in 0..3 {
            let _s = tracer.span("join");
        }
        let snap = registry.snapshot();
        match snap.get("engine.span.join") {
            Some(crate::MetricValue::Histogram(h)) => assert_eq!(h.count, 3),
            other => panic!("expected span histogram, got {other:?}"),
        }
    }

    #[test]
    fn spans_from_scoped_threads_all_land() {
        let registry = Arc::new(Registry::new());
        let tracer = RegistrySubscriber::tracer(registry.clone(), "engine", &[]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    for _ in 0..50 {
                        let _s = tracer.span("atomic_fetch");
                    }
                });
            }
        });
        let snap = registry.snapshot();
        match snap.get("engine.span.atomic_fetch") {
            Some(crate::MetricValue::Histogram(h)) => assert_eq!(h.count, 200),
            other => panic!("expected span histogram, got {other:?}"),
        }
    }
}
