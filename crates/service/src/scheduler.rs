//! The admission scheduler: decides when a query may run, and runs it on the
//! thread that submitted it.
//!
//! [`Scheduler::submit`] admits an engine [`QueryRequest`], parks the calling
//! connection thread in the lane of the given [`Priority`] until one of
//! `batch_workers` permits is free, and then runs [`LcmsrEngine::execute`] on
//! that same thread.  The **interactive** lane always gets the next free
//! permit before the **batch** lane, so bulk work parked behind the service
//! never delays a user-facing query for longer than the queries already
//! running; within a lane callers are served FIFO.
//! A permit is a guard released on drop, so a query that unwinds still hands
//! its permit on.  There is no batching window: on an idle service a query
//! starts the moment it is admitted.
//!
//! Admission control sheds doomed deadlines.  Every parked caller is a
//! connection thread, so the HTTP server's connection slots bound how many
//! callers can park.  When a request carries a [`Deadline`] that has
//! already expired — or that an EWMA of recent per-query engine times
//! predicts will expire while the callers ahead of it run —
//! [`Scheduler::submit`] returns [`SubmitError::DeadlineUnmeetable`].  Only
//! the parked callers that take a permit first count as ahead: the
//! interactive lane for an interactive request, both lanes for a batch-lane
//! request.  The HTTP layer sheds it with a `503` + `Retry-After` instead of
//! letting latency collapse for everyone.  Requests admitted *with* a
//! deadline carry it into the engine, so a deadline that expires while
//! parked or mid-solve still yields the solver's best-so-far incumbent
//! (`partial: true`) rather than nothing.

use crate::metrics::ServiceMetrics;
use crate::sync::{lock_or_recover, wait_or_recover};
use lcmsr_core::cancel::{self, Deadline};
use lcmsr_core::engine::{LcmsrEngine, QueryOutcome, QueryRequest};
use lcmsr_core::error::Result as LcmsrResult;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// The lane a caller waits in for a permit: a free permit goes to the
/// interactive lane before the batch lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Priority {
    /// A user is waiting on the answer; served first.
    #[default]
    Interactive,
    /// Throughput work; served when no interactive request is queued.
    Batch,
}

impl Priority {
    /// Parses the wire spelling ("interactive" / "batch").
    pub fn parse(s: &str) -> Option<Priority> {
        match s {
            "interactive" => Some(Priority::Interactive),
            "batch" => Some(Priority::Batch),
            _ => None,
        }
    }
}

/// Scheduler tuning knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Ignored: the scheduler has no batching window.  Defaults to zero.
    #[deprecated(note = "the scheduler has no batching window; this field is ignored")]
    pub max_delay: Duration,
    /// Permits: how many queries run on the engine at once (at least one).
    pub batch_workers: usize,
}

impl Default for BatchConfig {
    #[allow(deprecated)]
    fn default() -> Self {
        let parallelism =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        BatchConfig {
            max_delay: Duration::ZERO,
            batch_workers: parallelism,
        }
    }
}

/// Why a submission was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The request's deadline has already expired, or the predicted wait for
    /// a permit exceeds what is left of it — shed with `503` + `Retry-After`
    /// now instead of burning engine time on an answer nobody is waiting for.
    DeadlineUnmeetable,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::DeadlineUnmeetable => {
                write!(f, "deadline unmeetable given queue wait, request shed")
            }
        }
    }
}

/// The parked callers of both lanes and the free permits, under one mutex.
struct Lanes {
    /// Tickets of parked interactive callers, oldest first.
    interactive: VecDeque<u64>,
    /// Tickets of parked batch-lane callers, oldest first.
    batch: VecDeque<u64>,
    /// Permits not held by a running query.
    free: usize,
    /// The ticket the next parking caller draws.
    next_ticket: u64,
}

impl Lanes {
    fn parked(&self) -> usize {
        self.interactive.len() + self.batch.len()
    }

    /// Parked callers that get a permit before a new caller in `priority`'s
    /// lane: its own lane, plus the interactive lane for a batch-lane caller.
    fn ahead_of(&self, priority: Priority) -> usize {
        match priority {
            Priority::Interactive => self.interactive.len(),
            Priority::Batch => self.parked(),
        }
    }

    fn lane(&mut self, priority: Priority) -> &mut VecDeque<u64> {
        match priority {
            Priority::Interactive => &mut self.interactive,
            Priority::Batch => &mut self.batch,
        }
    }

    /// Whether the parked caller holding `ticket` gets the next free permit.
    fn is_next(&self, priority: Priority, ticket: u64) -> bool {
        match priority {
            Priority::Interactive => self.interactive.front() == Some(&ticket),
            Priority::Batch => self.interactive.is_empty() && self.batch.front() == Some(&ticket),
        }
    }
}

/// How long a shed client should wait before retrying, in whole seconds:
/// the EWMA-predicted time to drain the parked callers across the permits,
/// rounded up and clamped to `[1, 30]`.  With no service-time sample yet (or
/// nobody parked) the estimate is the floor of 1 s.
fn retry_after_from(ewma_ns: u64, queued: usize, workers: usize) -> u64 {
    let workers = workers.max(1) as u64;
    let drain_ns = ewma_ns.saturating_mul(queued as u64) / workers;
    let secs = drain_ns.div_ceil(1_000_000_000);
    secs.clamp(1, 30)
}

/// The admission scheduler over a shared engine.
pub struct Scheduler {
    engine: &'static LcmsrEngine<'static>,
    config: BatchConfig,
    lanes: Mutex<Lanes>,
    /// Signalled whenever a permit frees, and whenever a caller parks so an
    /// observer can wait for it to be parked.  Parked callers wait on it for
    /// their turn.
    changed: Condvar,
    metrics: Arc<ServiceMetrics>,
    /// EWMA (α = 1/8) of one query's engine time in nanoseconds; 0 until the
    /// first query completes.  Feeds the predictive half of deadline-aware
    /// shedding and the `Retry-After` estimate.
    service_time_ns: AtomicU64,
}

impl std::fmt::Debug for Scheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Scheduler")
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

/// One of the scheduler's permits, held while a query runs.  Dropping it —
/// also while unwinding — hands the permit to the next parked caller.
struct Permit<'a> {
    scheduler: &'a Scheduler,
    /// How long the caller was parked before it got the permit.
    queued_for: Duration,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let waiting = {
            let mut lanes = lock_or_recover(&self.scheduler.lanes);
            lanes.free += 1;
            lanes.parked() > 0
        };
        if waiting {
            self.scheduler.changed.notify_all();
        }
    }
}

impl Scheduler {
    /// Creates a scheduler over `engine` with `config.batch_workers` permits.
    pub fn new(
        engine: &'static LcmsrEngine<'static>,
        config: BatchConfig,
        metrics: Arc<ServiceMetrics>,
    ) -> Self {
        let permits = config.batch_workers.max(1);
        Scheduler {
            engine,
            config,
            lanes: Mutex::new(Lanes {
                interactive: VecDeque::new(),
                batch: VecDeque::new(),
                free: permits,
                next_ticket: 0,
            }),
            changed: Condvar::new(),
            metrics,
            service_time_ns: AtomicU64::new(0),
        }
    }

    fn permits(&self) -> usize {
        self.config.batch_workers.max(1)
    }

    /// Admits `request` in `priority`'s lane, waits on the calling thread for
    /// a permit, and runs the query there; the request's deadline counts
    /// against admission.  The outer error is a shed; the inner result is the
    /// engine's answer, with the wait for the permit in `stats.queue_time`,
    /// or its query error.
    pub fn submit(
        &self,
        request: &QueryRequest<'_>,
        priority: Priority,
    ) -> Result<LcmsrResult<QueryOutcome>, SubmitError> {
        let permit = self.admit(priority, request.options.deadline.as_ref())?;
        self.metrics.batches.fetch_add(1, Ordering::Relaxed);
        self.metrics.batched_queries.fetch_add(1, Ordering::Relaxed);
        let started = cancel::now();
        let outcome = self.engine.execute(request);
        let ran_for = started.elapsed();
        let queued_for = permit.queued_for;
        drop(permit);
        // Only answered queries feed the EWMA: a query the engine rejects up
        // front says nothing about how long a permit is held.
        Ok(outcome.map(|mut outcome| {
            self.record_service_time(ran_for);
            outcome.stats.queue_time = queued_for;
            outcome
        }))
    }

    /// Admission, then the wait for a permit: sheds the caller, or parks it
    /// in its lane until a permit is free and no caller ahead of it is left.
    fn admit(
        &self,
        priority: Priority,
        deadline: Option<&Deadline>,
    ) -> Result<Permit<'_>, SubmitError> {
        let mut lanes = lock_or_recover(&self.lanes);
        let ahead = lanes.ahead_of(priority);
        if deadline.is_some_and(|d| self.deadline_unmeetable(d, ahead)) {
            self.metrics.deadline_shed.fetch_add(1, Ordering::Relaxed);
            return Err(SubmitError::DeadlineUnmeetable);
        }
        self.metrics.queries.fetch_add(1, Ordering::Relaxed);
        if ahead == 0 && lanes.free > 0 {
            lanes.free -= 1;
            return Ok(Permit {
                scheduler: self,
                queued_for: Duration::ZERO,
            });
        }
        let parked = cancel::now();
        let ticket = lanes.next_ticket;
        lanes.next_ticket += 1;
        lanes.lane(priority).push_back(ticket);
        self.metrics
            .queue_depth
            .store(lanes.parked() as u64, Ordering::Relaxed);
        self.changed.notify_all();
        while lanes.free == 0 || !lanes.is_next(priority, ticket) {
            lanes = wait_or_recover(&self.changed, lanes);
        }
        lanes.lane(priority).pop_front();
        lanes.free -= 1;
        self.metrics
            .queue_depth
            .store(lanes.parked() as u64, Ordering::Relaxed);
        // Permits freed while this caller was still waking: the caller now
        // at the head of the lanes may have re-checked too early and gone
        // back to sleep, so wake it again.
        let hand_on = lanes.free > 0 && lanes.parked() > 0;
        drop(lanes);
        if hand_on {
            self.changed.notify_all();
        }
        Ok(Permit {
            scheduler: self,
            queued_for: parked.elapsed(),
        })
    }

    /// Whether a deadline is definitely or predictably unmeetable: already
    /// expired, or the EWMA-predicted run time of the `ahead` callers that
    /// get a permit first, spread over the permits, exceeds what is left of
    /// it.  With no service-time sample yet the prediction abstains (admit
    /// optimistically).
    fn deadline_unmeetable(&self, deadline: &Deadline, ahead: usize) -> bool {
        if deadline.expired() {
            return true;
        }
        let ewma = self.service_time_ns.load(Ordering::Relaxed);
        if ewma == 0 || ahead == 0 {
            return false;
        }
        let predicted_wait =
            Duration::from_nanos(ewma.saturating_mul(ahead as u64) / self.permits() as u64);
        deadline.remaining() <= predicted_wait
    }

    /// Folds one query's own engine time into the EWMA (α = 1/8; the first
    /// sample seeds it directly).
    fn record_service_time(&self, ran_for: Duration) {
        let sample = u64::try_from(ran_for.as_nanos()).unwrap_or(u64::MAX).max(1);
        let fold = |old: u64| {
            Some(if old == 0 {
                sample
            } else {
                old - old / 8 + sample / 8
            })
        };
        // The closure never declines, so the update always succeeds.
        let _ = self
            .service_time_ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, fold);
    }

    /// Callers currently parked across both lanes.
    pub fn queue_depth(&self) -> usize {
        lock_or_recover(&self.lanes).parked()
    }

    /// `Retry-After` estimate for shed responses, in whole seconds: how long
    /// the EWMA of recent per-query engine times predicts the parked callers
    /// take to drain across the permits, clamped to `[1, 30]`.
    pub fn retry_after_secs(&self) -> u64 {
        retry_after_from(
            self.service_time_ns.load(Ordering::Relaxed),
            self.queue_depth(),
            self.permits(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leak_engine;
    use lcmsr_core::query::LcmsrQuery;
    use lcmsr_core::{Algorithm, TgenParams};
    use lcmsr_geotext::collection::ObjectCollection;
    use lcmsr_geotext::object::GeoTextObject;
    use lcmsr_roadnet::builder::GraphBuilder;
    use lcmsr_roadnet::geo::Point;
    use std::sync::mpsc;
    use std::time::Instant;

    /// A 5×5 grid with restaurants in one corner, leaked for 'static tests.
    fn leaked_engine() -> &'static LcmsrEngine<'static> {
        let mut b = GraphBuilder::new();
        let mut ids = Vec::new();
        for y in 0..5 {
            for x in 0..5 {
                ids.push(b.add_node(Point::new(x as f64 * 100.0, y as f64 * 100.0)));
            }
        }
        for y in 0..5 {
            for x in 0..5 {
                let i = y * 5 + x;
                if x < 4 {
                    b.add_edge(ids[i], ids[i + 1], 100.0).unwrap();
                }
                if y < 4 {
                    b.add_edge(ids[i], ids[i + 5], 100.0).unwrap();
                }
            }
        }
        let network = b.build().unwrap();
        let objects: Vec<GeoTextObject> = [(10.0, 10.0), (110.0, 10.0), (10.0, 110.0)]
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                GeoTextObject::from_keywords(i as u64, Point::new(x, y), ["restaurant"])
            })
            .collect();
        let collection = ObjectCollection::build(&network, objects, 150.0).unwrap();
        leak_engine(network, collection)
    }

    /// A restaurant query over the whole grid with length budget `delta`.
    fn query(engine: &LcmsrEngine<'_>, delta: f64) -> LcmsrQuery {
        let roi = engine.network().bounding_rect().unwrap().expanded(10.0);
        LcmsrQuery::new(["restaurant"], delta, roi).unwrap()
    }

    /// A deadline-free, untraced, cache-off TGEN request.
    fn request(query: &LcmsrQuery) -> QueryRequest<'_> {
        QueryRequest::new(query, Algorithm::Tgen(TgenParams { alpha: 1.0 }))
    }

    /// The answer of an admitted request the engine accepted.
    fn served(submitted: Result<LcmsrResult<QueryOutcome>, SubmitError>) -> QueryOutcome {
        submitted.unwrap().unwrap()
    }

    fn start(engine: &'static LcmsrEngine<'static>, config: BatchConfig) -> Scheduler {
        Scheduler::new(engine, config, Arc::new(ServiceMetrics::new()))
    }

    /// One permit, so a test holding it parks every other caller.
    fn one_permit() -> BatchConfig {
        BatchConfig {
            batch_workers: 1,
            ..BatchConfig::default()
        }
    }

    /// Blocks until at least `n` callers are parked (parking signals
    /// `changed`, so this waits on an event, not on time).
    fn wait_parked(scheduler: &Scheduler, n: usize) {
        let mut lanes = lock_or_recover(&scheduler.lanes);
        while lanes.parked() < n {
            lanes = wait_or_recover(&scheduler.changed, lanes);
        }
    }

    #[test]
    fn priority_parses_the_wire_spellings() {
        assert_eq!(Priority::parse("interactive"), Some(Priority::Interactive));
        assert_eq!(Priority::parse("batch"), Some(Priority::Batch));
        assert_eq!(Priority::parse("bogus"), None);
        assert_eq!(Priority::default(), Priority::Interactive);
    }

    #[test]
    fn concurrent_results_match_direct_engine_calls() {
        let engine = leaked_engine();
        let metrics = Arc::new(ServiceMetrics::new());
        let scheduler = Scheduler::new(
            engine,
            BatchConfig {
                batch_workers: 2,
                ..BatchConfig::default()
            },
            Arc::clone(&metrics),
        );
        let deltas = [100.0, 200.0, 300.0, 150.0, 250.0, 350.0];
        std::thread::scope(|scope| {
            for &delta in &deltas {
                let scheduler = &scheduler;
                scope.spawn(move || {
                    let q = query(engine, delta);
                    let answer = served(scheduler.submit(&request(&q), Priority::Interactive));
                    let direct = engine.execute(&request(&q)).unwrap();
                    assert_eq!(answer.regions, direct.regions, "delta {delta}");
                });
            }
        });
        // Every query is admitted once and runs as one engine call.
        assert_eq!(metrics.queries.load(Ordering::Relaxed), 6);
        assert_eq!(metrics.batches.load(Ordering::Relaxed), 6);
        assert_eq!(metrics.batched_queries.load(Ordering::Relaxed), 6);
        assert_eq!(scheduler.queue_depth(), 0);
    }

    #[test]
    fn a_lone_job_on_an_idle_scheduler_runs_without_queueing() {
        let engine = leaked_engine();
        let scheduler = start(engine, BatchConfig::default());
        let result =
            served(scheduler.submit(&request(&query(engine, 300.0)), Priority::Interactive));
        assert_eq!(result.stats.queue_time, Duration::ZERO);
        assert!(result.best().is_some());
        assert!(result.stats.prepare_time + result.stats.solve_time <= result.stats.elapsed);
    }

    #[test]
    fn an_interactive_caller_parked_after_a_batch_caller_gets_the_next_permit() {
        let engine = leaked_engine();
        let scheduler = start(engine, one_permit());
        let held = scheduler.admit(Priority::Interactive, None).unwrap();
        let (order_tx, order_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            let scheduler = &scheduler;
            let callers = [
                (Priority::Batch, "batch"),
                (Priority::Interactive, "interactive"),
            ];
            for (parked_before, (priority, label)) in callers.into_iter().enumerate() {
                let order_tx = order_tx.clone();
                // The order is recorded while the permit is held, so it is
                // exactly the order the permits were granted in.
                scope.spawn(move || {
                    let permit = scheduler.admit(priority, None).unwrap();
                    order_tx.send(label).unwrap();
                    drop(permit);
                });
                wait_parked(scheduler, parked_before + 1);
            }
            drop(held);
        });
        drop(order_tx);
        let order: Vec<&str> = order_rx.iter().collect();
        assert_eq!(order, ["interactive", "batch"]);
    }

    #[test]
    fn a_deadline_expiring_while_parked_yields_a_partial_result() {
        let engine = leaked_engine();
        let scheduler = start(engine, one_permit());
        let held = scheduler.admit(Priority::Interactive, None).unwrap();
        let result = std::thread::scope(|scope| {
            let (deadline_tx, deadline_rx) = mpsc::channel();
            let scheduler = &scheduler;
            let parked = scope.spawn(move || {
                let doomed = query(engine, 300.0);
                let deadline = Deadline::after(Duration::from_millis(50));
                deadline_tx.send(deadline).unwrap();
                scheduler.submit(&request(&doomed).deadline(deadline), Priority::Interactive)
            });
            let deadline = deadline_rx.recv().unwrap();
            wait_parked(scheduler, 1);
            while !deadline.expired() {
                std::thread::yield_now();
            }
            drop(held);
            served(parked.join().unwrap())
        });
        assert!(
            result.stats.partial,
            "a deadline blown while parked must yield a best-so-far partial answer"
        );
        assert_eq!(
            result.stats.partial_cause.map(|c| c.as_str()),
            Some("deadline_exceeded")
        );
    }

    #[test]
    fn queue_time_covers_the_parked_interval() {
        let engine = leaked_engine();
        let scheduler = start(engine, one_permit());
        let held = scheduler.admit(Priority::Interactive, None).unwrap();
        let (result, held_for) = std::thread::scope(|scope| {
            let scheduler = &scheduler;
            let parked = scope.spawn(move || {
                scheduler.submit(&request(&query(engine, 300.0)), Priority::Interactive)
            });
            wait_parked(scheduler, 1);
            // The caller is parked from here on; keep the permit across some
            // real engine work before handing it over.
            let observed = Instant::now();
            engine.execute(&request(&query(engine, 200.0))).unwrap();
            let held_for = observed.elapsed();
            drop(held);
            (served(parked.join().unwrap()), held_for)
        });
        assert!(
            result.stats.queue_time >= held_for,
            "queue_time {:?} must cover the {held_for:?} the caller was parked",
            result.stats.queue_time
        );
    }

    #[test]
    fn a_panic_while_holding_a_permit_releases_it() {
        let engine = leaked_engine();
        let scheduler = start(engine, one_permit());
        let crashed = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let _permit = scheduler.admit(Priority::Interactive, None).unwrap();
                    panic!("query panicked while holding the only permit");
                })
                .join()
        });
        assert!(crashed.is_err());
        // The only permit came back: the next submit runs instead of parking
        // forever.
        let result =
            served(scheduler.submit(&request(&query(engine, 300.0)), Priority::Interactive));
        assert_eq!(result.stats.queue_time, Duration::ZERO);
    }

    #[test]
    fn a_failing_query_returns_its_error_to_its_own_caller() {
        let engine = leaked_engine();
        let scheduler = start(engine, BatchConfig::default());
        // Exact over the whole 25-node grid exceeds the solver's node cap.
        let q = query(engine, 300.0);
        let exact = QueryRequest::new(&q, Algorithm::Exact);
        assert!(scheduler
            .submit(&exact, Priority::Interactive)
            .unwrap()
            .is_err());
        served(scheduler.submit(&request(&q), Priority::Interactive));
    }

    #[test]
    fn expired_deadline_is_shed_at_submit() {
        let engine = leaked_engine();
        let metrics = Arc::new(ServiceMetrics::new());
        let scheduler = Scheduler::new(engine, BatchConfig::default(), Arc::clone(&metrics));
        let q = query(engine, 300.0);
        let doomed = request(&q).deadline(Deadline::after(Duration::ZERO));
        assert_eq!(
            scheduler
                .submit(&doomed, Priority::Interactive)
                .unwrap_err(),
            SubmitError::DeadlineUnmeetable
        );
        assert_eq!(metrics.deadline_shed.load(Ordering::Relaxed), 1);
        assert_eq!(metrics.queries.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn predicted_queue_wait_sheds_tight_deadlines() {
        let engine = leaked_engine();
        let scheduler = start(engine, one_permit());
        // A 10s-per-query service history with one caller ahead.
        scheduler
            .service_time_ns
            .store(10_000_000_000, Ordering::Relaxed);
        let tight = Deadline::after(Duration::from_secs(1));
        assert!(scheduler.deadline_unmeetable(&tight, 1));
        // A generous deadline is admitted.
        let loose = Deadline::after(Duration::from_secs(60));
        assert!(!scheduler.deadline_unmeetable(&loose, 1));
        // Nobody ahead admits any unexpired deadline.
        assert!(!scheduler.deadline_unmeetable(&tight, 0));
        // With no service-time sample the prediction abstains.
        scheduler.service_time_ns.store(0, Ordering::Relaxed);
        assert!(!scheduler.deadline_unmeetable(&tight, 5));
    }

    #[test]
    fn deadline_prediction_counts_only_the_callers_ahead_in_lane() {
        let engine = leaked_engine();
        let scheduler = start(engine, one_permit());
        // 10 ms per query: eight parked batch-lane callers predict 80 ms.
        scheduler
            .service_time_ns
            .store(10_000_000, Ordering::Relaxed);
        let held = scheduler.admit(Priority::Interactive, None).unwrap();
        let q = query(engine, 300.0);
        std::thread::scope(|scope| {
            let scheduler = &scheduler;
            let bulk: Vec<_> = (0..8)
                .map(|i| {
                    scope.spawn(move || {
                        let q = query(engine, 100.0 + f64::from(i));
                        scheduler.submit(&request(&q), Priority::Batch)
                    })
                })
                .collect();
            wait_parked(scheduler, 8);
            // A batch-lane request queues behind all eight: 80 ms > 50 ms.
            let late_bulk = request(&q).deadline(Deadline::after(Duration::from_millis(50)));
            assert_eq!(
                scheduler.submit(&late_bulk, Priority::Batch).unwrap_err(),
                SubmitError::DeadlineUnmeetable
            );
            // An interactive request overtakes them all, so nothing is ahead.
            let urgent = request(&q).deadline(Deadline::after(Duration::from_millis(50)));
            let interactive = scope.spawn(move || scheduler.submit(&urgent, Priority::Interactive));
            wait_parked(scheduler, 9);
            drop(held);
            served(interactive.join().unwrap());
            for handle in bulk {
                served(handle.join().unwrap());
            }
        });
    }

    #[test]
    fn retry_after_tracks_the_predicted_drain_time() {
        // No history yet: the floor of 1 s, never 0.
        assert_eq!(retry_after_from(0, 100, 4), 1);
        // Nobody parked drains instantly: still the 1 s floor.
        assert_eq!(retry_after_from(5_000_000_000, 0, 4), 1);
        // 2 s per query, 4 parked, 1 permit → 8 s predicted drain.
        assert_eq!(retry_after_from(2_000_000_000, 4, 1), 8);
        // The same backlog across 4 permits drains in a quarter the time.
        assert_eq!(retry_after_from(2_000_000_000, 4, 4), 2);
        // Fractional seconds round up, not down.
        assert_eq!(retry_after_from(1_500_000_000, 1, 1), 2);
        // A pathological backlog is clamped to the 30 s ceiling.
        assert_eq!(retry_after_from(10_000_000_000, 1_000, 1), 30);
        // Zero workers is treated as one, not a division by zero.
        assert_eq!(retry_after_from(3_000_000_000, 2, 0), 6);
    }

    #[test]
    fn scheduler_exposes_a_clamped_retry_after_estimate() {
        let engine = leaked_engine();
        let scheduler = start(engine, BatchConfig::default());
        // Fresh scheduler: nobody parked, no EWMA → the 1 s floor.
        assert_eq!(scheduler.retry_after_secs(), 1);
        served(scheduler.submit(&request(&query(engine, 200.0)), Priority::Interactive));
        // With a (tiny) EWMA sample and nobody parked the floor still holds,
        // and the estimate always stays within the clamp.
        let estimate = scheduler.retry_after_secs();
        assert!((1..=30).contains(&estimate), "estimate {estimate}");
    }

    #[test]
    fn requests_default_to_cache_off_and_carry_their_options() {
        let engine = leaked_engine();
        let q = query(engine, 200.0);
        assert!(
            !request(&q).options.cache,
            "classic requests must not touch the cache"
        );
        let cached = request(&q).cache(true);
        let scheduler = start(engine, BatchConfig::default());
        let result = served(scheduler.submit(&cached, Priority::Interactive));
        assert!(result.stats.cache, "the cache flag must reach the engine");
        // A repeat of the same request replays from the response cache.
        let result = served(scheduler.submit(&cached, Priority::Interactive));
        assert!(result.stats.cache_hit, "the repeat must hit the cache");
        // A top-k request comes back with the engine's top-k answer.
        let wide = query(engine, 300.0);
        let topk = served(scheduler.submit(&request(&wide).top_k(2), Priority::Interactive));
        let direct = engine.execute(&request(&wide).top_k(2)).unwrap();
        assert_eq!(topk.regions.len(), 2, "{:?}", topk.regions);
        assert_eq!(topk.regions, direct.regions);
    }

    #[test]
    fn service_time_ewma_takes_one_sample_per_query() {
        let engine = leaked_engine();
        let scheduler = start(engine, BatchConfig::default());
        scheduler.record_service_time(Duration::from_micros(800));
        assert_eq!(scheduler.service_time_ns.load(Ordering::Relaxed), 800_000);
        for _ in 0..64 {
            scheduler.record_service_time(Duration::from_micros(100));
        }
        let ewma = scheduler.service_time_ns.load(Ordering::Relaxed);
        assert!(
            (90_000..200_000).contains(&ewma),
            "EWMA should approach the steady 100µs samples, got {ewma}"
        );
        // A served query feeds its own engine time, undivided.
        let fresh = start(engine, BatchConfig::default());
        let result = served(fresh.submit(&request(&query(engine, 300.0)), Priority::Interactive));
        let sample = fresh.service_time_ns.load(Ordering::Relaxed);
        assert!(sample > 0);
        assert!(
            Duration::from_nanos(sample) >= result.stats.elapsed,
            "the sample {sample} ns covers the engine's own {:?}",
            result.stats.elapsed
        );
    }
}
