//! The three workloads. Each drives a real `qrn serve --store` child over
//! loopback TCP from at most two client threads, measures its window,
//! runs the fixed probes its window lacks, and checks every served body
//! it can against the offline pipeline.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use qrn_fleet::ingest::FleetState;
use qrn_store::{Store, StoreConfig, StoreReader};

use crate::check::{report, same_report, Reference};
use crate::client::{call, Counters, Server, Tally, REQUEST_TIMEOUT};
use crate::gen::{self, Rng};
use crate::layers::{self, Replay};
use crate::stats::{median, needed, percentile};
use crate::trace::Tracer;
use crate::{Case, Metric};

/// Lines per uploader batch and per stream segment.
const BATCH_LINES: u64 = 256;
/// `ingest_durable`: closed-loop uploaders, each with its own fleet.
const UPLOADERS: u64 = 2;
const UPLOADER_FLEET: u64 = 64;
/// `fleet_scale_mixed`: preloaded fleet, preload post size, stream rate.
const FLEET: u64 = 100_000;
const PRELOAD_PER_POST: u64 = 25_000;
const FLEET_SETUPS: usize = 5;
const STREAM_PER_S: f64 = 10.0;
/// `audit_replay`: stored history shape and synthetic clock.
const AUDIT_BATCHES: u64 = 1000;
const AUDIT_FLEET: u64 = 64;
const AUDIT_T0_MS: u64 = 1_600_000_000_000;
const AUDIT_STEP_MS: u64 = 1000;
/// Fixed post-window probes for request kinds a window does not issue.
const PROBE_INGESTS: u64 = 1000;
const PROBE_INGEST_LINES: u64 = 16;
const PROBE_QUERIES: u64 = 100;
/// Client lanes: which generator issued a request (uploaders are lanes
/// `0..UPLOADERS`).
const LANE_QUERY_PROBE: u64 = 10;
const LANE_INGEST_PROBE: u64 = 11;
const LANE_AS_OF_PROBE: u64 = 12;
const LANE_PRELOAD: u64 = 20;
const LANE_STREAM: u64 = 30;
const LANE_DASHBOARD: u64 = 31;
const LANE_AUDITOR: u64 = 40;
/// Equal spans of the window the primary metrics take their median over.
const SUB_WINDOWS: usize = 5;
/// A window may run past `--seconds` (up to this factor) until each
/// closed-loop client has the samples its reported percentiles need.
const MAX_STRETCH: f64 = 3.0;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    Ingest,
    Burndown,
    Scrape,
    AsOf,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Ingest => "ingest",
            Kind::Burndown => "burndown",
            Kind::Scrape => "scrape",
            Kind::AsOf => "as_of",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    Window,
    Probe,
}

/// One attempted request.
#[derive(Clone, Debug)]
pub struct Call {
    pub request: u64,
    pub kind: Kind,
    pub phase: Phase,
    /// Which generator issued it (uploader index, stream, probe).
    pub lane: u64,
    /// Batch index, or the `as_of` cut in milliseconds.
    pub input: u64,
    /// When the request was due: its schedule slot in an open loop, its
    /// send time in a closed loop.
    pub due: Instant,
    pub start: Instant,
    pub end: Instant,
    /// How late the generator sent it: past its slot in an open loop,
    /// after the previous answer in a closed loop.
    pub late: Duration,
    pub ok: bool,
    pub events: u64,
    pub bytes: u64,
    pub root_span: Option<u64>,
    /// Time spent recording the root span, which `end` includes (zero
    /// without one).
    pub record: Duration,
}

impl Call {
    /// Latency in ms; a failed request misses every limit, so it counts
    /// as the full request timeout.
    pub fn latency_ms(&self) -> f64 {
        if self.ok {
            (self.end - self.due).as_secs_f64() * 1e3
        } else {
            REQUEST_TIMEOUT.as_secs_f64() * 1e3
        }
    }
}

/// A request a generator wants sent.
pub struct Req {
    kind: Kind,
    input: u64,
    method: &'static str,
    target: String,
    body: String,
    events: u64,
}

impl Req {
    fn ingest(input: u64, body: String) -> Req {
        let events = body.lines().count() as u64;
        Req {
            kind: Kind::Ingest,
            input,
            method: "POST",
            target: "/v1/ingest".into(),
            body,
            events,
        }
    }

    fn get(kind: Kind, input: u64, target: String) -> Req {
        Req {
            kind,
            input,
            method: "GET",
            target,
            body: String::new(),
            events: 0,
        }
    }

    fn burndown() -> Req {
        Req::get(Kind::Burndown, 0, "/v1/burndown".into())
    }

    fn scrape() -> Req {
        Req::get(Kind::Scrape, 0, "/metrics".into())
    }

    fn as_of(cut: u64) -> Req {
        Req::get(Kind::AsOf, cut, format!("/v1/burndown?as_of={cut}"))
    }
}

/// What one client lane produced.
#[derive(Default)]
pub struct Lane {
    pub calls: Vec<Call>,
    /// `(input, body)` of every successful request that asked to keep it.
    pub bodies: Vec<(u64, Vec<u8>)>,
}

impl Lane {
    fn absorb(&mut self, other: Lane) {
        self.calls.extend(other.calls);
        self.bodies.extend(other.bodies);
    }
}

/// When a closed-loop lane stops: at `deadline`, or later (up to
/// `hard`) while it still has fewer than `min_calls` answers.
struct Until {
    deadline: Instant,
    hard: Instant,
    min_calls: usize,
}

impl Until {
    /// No time limit: the lane's generator decides when it is done.
    fn unbounded() -> Until {
        let far = Instant::now() + Duration::from_secs(170);
        Until {
            deadline: far,
            hard: far,
            min_calls: 0,
        }
    }

    fn more(&self, calls: usize) -> bool {
        let now = Instant::now();
        now < self.deadline || (calls < self.min_calls && now < self.hard)
    }
}

pub struct Env {
    pub qrn: PathBuf,
    pub case_dir: PathBuf,
    pub case: Case,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub nproc: usize,
    pub tally: Tally,
    pub tracer: Option<Tracer>,
    pub next_request: AtomicU64,
}

/// Everything a workload reports back.
pub struct Outcome {
    pub e2e: Vec<Metric>,
    /// Every request kind's latencies under their own names.
    pub kinds: Vec<Metric>,
    pub layers: Vec<Metric>,
    pub provenance: BTreeMap<String, String>,
    pub check_failures: Vec<String>,
}

/// Counter deltas summed over every timed window and probe.
#[derive(Default)]
struct Deltas(BTreeMap<&'static str, f64>);

const COUNTED_FAMILIES: [&str; 5] = [
    "qrn_http_requests_total",
    "qrn_http_responses_total",
    "qrn_server_segments_ingested_total",
    "qrn_store_group_commits_total",
    "qrn_store_appended_bytes_total",
];

impl Deltas {
    fn add(&mut self, before: &Counters, after: &Counters) {
        for family in COUNTED_FAMILIES {
            *self.0.entry(family).or_default() += after.family(family) - before.family(family);
        }
        let ok = "qrn_http_responses_total{status=\"200\"}";
        *self.0.entry("non_200").or_default() += after.family("qrn_http_responses_total")
            - after.series(ok)
            - (before.family("qrn_http_responses_total") - before.series(ok));
    }

    fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// Ingested segments per group commit (one fsync each).
    fn batches_per_fsync(&self) -> f64 {
        self.get("qrn_server_segments_ingested_total")
            / self.get("qrn_store_group_commits_total").max(1.0)
    }
}

/// One served state plus its phase bookkeeping.
struct Session {
    server: Server,
    lane: Lane,
    deltas: Deltas,
}

impl Env {
    fn spawn(&self, store: &Path) -> Result<Server, String> {
        Server::spawn(&self.qrn, &self.case_dir, store)
    }

    /// Sends one request and records it; in a traced run a pseudo-random
    /// half of the requests (uncorrelated with any lane's request mix)
    /// also gets a root span. A traced request's latency ends after its
    /// span is recorded, so traced minus untraced latency in the same
    /// window is what tracing adds to a call.
    #[allow(clippy::too_many_arguments)]
    fn send(
        &self,
        port: u16,
        phase: Phase,
        lane: u64,
        due: Option<Instant>,
        late: Duration,
        req: &Req,
        out: &mut Lane,
    ) -> bool {
        let request = self.next_request.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let result = call(
            &self.tally,
            port,
            req.method,
            &req.target,
            req.body.as_bytes(),
        );
        let answered = Instant::now();
        let root_span = match &self.tracer {
            Some(tracer) if Rng::new(&[request]).next_u64().is_multiple_of(2) => {
                let name = format!("client.{}", req.kind.name());
                Some(tracer.record(&name, None, request, start, answered, false))
            }
            _ => None,
        };
        let end = Instant::now();
        if let Some(tracer) = &self.tracer {
            if !late.is_zero() {
                // Before the call, so not a child of its root span.
                tracer.record("loadgen.late", None, request, start - late, start, true);
            }
        }
        let ok = result.is_ok();
        if let (Kind::AsOf, Ok(body)) = (req.kind, result) {
            out.bodies.push((req.input, body));
        }
        out.calls.push(Call {
            request,
            kind: req.kind,
            phase,
            lane,
            input: req.input,
            due: due.unwrap_or(start),
            start,
            end,
            late,
            ok,
            events: if ok { req.events } else { 0 },
            bytes: if ok { req.body.len() as u64 } else { 0 },
            root_span,
            record: end - answered,
        });
        ok
    }

    /// A closed loop: the next request goes out when the previous answer
    /// is in. `next(i)` builds request `i`; `None` ends the lane.
    fn closed_loop(
        &self,
        port: u16,
        phase: Phase,
        lane: u64,
        until: &Until,
        mut next: impl FnMut(u64) -> Option<Req>,
    ) -> Lane {
        let mut out = Lane::default();
        let mut previous_end: Option<Instant> = None;
        let mut i = 0;
        while until.more(out.calls.len()) {
            let Some(req) = next(i) else { break };
            let late = previous_end.map_or(Duration::ZERO, |end| end.elapsed());
            self.send(port, phase, lane, None, late, &req, &mut out);
            previous_end = out.calls.last().map(|c| c.end);
            i += 1;
        }
        out
    }

    /// Runs `f` between two counter scrapes (outside its timing).
    fn counted<T>(
        &self,
        session: &mut Session,
        f: impl FnOnce(&Env, u16) -> T,
    ) -> Result<T, String> {
        let before = Counters::scrape(&self.tally, session.server.port)?;
        let out = f(self, session.server.port);
        let after = Counters::scrape(&self.tally, session.server.port)?;
        session.deltas.add(&before, &after);
        Ok(out)
    }

    /// Repeats a set-up `n` times, stopping each server before the next
    /// set-up, and keeps the last one. Each set-up returns its server and
    /// the seconds it took.
    fn setups(
        &self,
        n: usize,
        mut one: impl FnMut(usize) -> Result<(Server, f64), String>,
    ) -> Result<(Server, Vec<f64>), String> {
        let mut times = Vec::new();
        let mut kept: Option<Server> = None;
        for i in 0..n {
            if let Some(previous) = kept.take() {
                previous.shutdown(&self.tally)?;
            }
            let (server, secs) = one(i)?;
            times.push(secs);
            kept = Some(server);
        }
        Ok((kept.expect("at least one set-up"), times))
    }

    fn window_until(&self, start: Instant, min_calls: usize) -> Until {
        Until {
            deadline: start + Duration::from_secs_f64(self.seconds),
            hard: start + Duration::from_secs_f64(self.seconds * MAX_STRETCH),
            min_calls,
        }
    }

    /// Alternating burn-down and scrape probe, `PROBE_QUERIES` of each.
    fn query_probe(&self, session: &mut Session) -> Result<(), String> {
        let lane = self.counted(session, |env, port| {
            env.closed_loop(
                port,
                Phase::Probe,
                LANE_QUERY_PROBE,
                &Until::unbounded(),
                |i| {
                    (i < 2 * PROBE_QUERIES).then(|| {
                        if i % 2 == 0 {
                            Req::burndown()
                        } else {
                            Req::scrape()
                        }
                    })
                },
            )
        })?;
        session.lane.absorb(lane);
        Ok(())
    }

    /// Closed-loop ingest probe of small unsequenced batches.
    fn ingest_probe(&self, session: &mut Session) -> Result<(), String> {
        let seed = self.seed;
        let lane = self.counted(session, |env, port| {
            env.closed_loop(
                port,
                Phase::Probe,
                LANE_INGEST_PROBE,
                &Until::unbounded(),
                |i| {
                    (i < PROBE_INGESTS)
                        .then(|| Req::ingest(i, gen::probe_batch(seed, i, PROBE_INGEST_LINES)))
                },
            )
        })?;
        session.lane.absorb(lane);
        Ok(())
    }

    /// `as_of` probe on a store that holds nothing yet: the request-path
    /// floor of a historical query.
    fn empty_as_of_probe(&self, session: &mut Session) -> Result<(), String> {
        let mut rng = Rng::new(&[self.seed, 6]);
        let lane = self.counted(session, |env, port| {
            env.closed_loop(
                port,
                Phase::Probe,
                LANE_AS_OF_PROBE,
                &Until::unbounded(),
                |i| (i < PROBE_QUERIES).then(|| Req::as_of(1 + rng.below(AUDIT_T0_MS))),
            )
        })?;
        session.lane.absorb(lane);
        Ok(())
    }

    /// Final live burn-down body, peak RSS, then a clean shutdown.
    fn finish(&self, session: Session) -> Result<(Vec<u8>, f64, Lane, Deltas), String> {
        let body = call(&self.tally, session.server.port, "GET", "/v1/burndown", b"")
            .map_err(|e| format!("final burn-down failed: {e}"))?;
        let rss = session.server.peak_rss_mb()?;
        session.server.shutdown(&self.tally)?;
        Ok((body, rss, session.lane, session.deltas))
    }

    pub fn run(&self, workload: &str) -> Result<Outcome, String> {
        match workload {
            "ingest_durable" => self.ingest_durable(),
            "fleet_scale_mixed" => self.fleet_scale_mixed(),
            "audit_replay" => self.audit_replay(),
            other => Err(format!(
                "unknown workload {other:?} (ingest_durable, fleet_scale_mixed, audit_replay)"
            )),
        }
    }

    fn ingest_durable(&self) -> Result<Outcome, String> {
        let seed = self.seed;
        let store = self.work.join("store");
        let (server, setups) = self.setups(9, |_| {
            remove_dir(&store);
            let t0 = Instant::now();
            let server = self.spawn(&store)?;
            Ok((server, t0.elapsed().as_secs_f64()))
        })?;
        let mut session = Session {
            server,
            lane: Lane::default(),
            deltas: Deltas::default(),
        };
        self.empty_as_of_probe(&mut session)?;

        let lanes = self.counted(&mut session, |env, port| {
            let until = env.window_until(Instant::now(), needed(0.99) / UPLOADERS as usize);
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..UPLOADERS)
                    .map(|client| {
                        let until = &until;
                        scope.spawn(move || {
                            env.closed_loop(port, Phase::Window, client, until, |i| {
                                Some(Req::ingest(
                                    i,
                                    gen::uploader_batch(
                                        seed,
                                        client,
                                        i,
                                        UPLOADER_FLEET,
                                        BATCH_LINES,
                                    ),
                                ))
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("uploader thread"))
                    .collect::<Vec<_>>()
            })
        })?;
        for lane in lanes {
            session.lane.absorb(lane);
        }
        self.query_probe(&mut session)?;
        let (final_body, rss, lane, deltas) = self.finish(session)?;

        let mut checks = Vec::new();
        let reference = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..UPLOADERS)
                .map(|client| {
                    let lane = &lane;
                    scope.spawn(move || {
                        let mut r = Reference::new(&self.case.classification);
                        for c in lane
                            .calls
                            .iter()
                            .filter(|c| c.kind == Kind::Ingest && c.ok && c.lane == client)
                        {
                            r.add(&gen::uploader_batch(
                                seed,
                                client,
                                c.input,
                                UPLOADER_FLEET,
                                BATCH_LINES,
                            ))?;
                        }
                        Ok::<FleetState, String>(r.state)
                    })
                })
                .collect();
            let mut state = FleetState::default();
            for h in handles {
                state.merge(&h.join().expect("reference thread")?);
            }
            Ok::<FleetState, String>(state)
        })?;
        checks.extend(same_report(&final_body, &report(&self.case, &reference)?).err());
        checks.extend(self.check_empty_as_of(&lane)?);

        let item_store = store.join("default");
        let mut outcome = self.outcome(
            &lane,
            &deltas,
            &[Kind::Ingest],
            &setups,
            rss,
            dir_bytes(&store),
            0,
            checks,
        )?;
        outcome.provenance.extend(kv(&[
            ("window", "2 closed-loop uploaders, no queries".into()),
            ("uploaders", UPLOADERS.to_string()),
            ("fleet_per_uploader", UPLOADER_FLEET.to_string()),
            ("batch_lines", BATCH_LINES.to_string()),
            ("line_format", "v2 with ctx and seq".into()),
            ("setup_repeats", setups.len().to_string()),
            ("probes", format!("{PROBE_QUERIES} as_of on the empty store before the window; {PROBE_QUERIES} burndown + {PROBE_QUERIES} scrape after it")),
        ]));
        if let Some(tracer) = &self.tracer {
            let regen = |lane: u64, input: u64| {
                gen::uploader_batch(seed, lane, input, UPLOADER_FLEET, BATCH_LINES)
            };
            outcome.layers = layers::replay(
                tracer,
                &Replay {
                    env: self,
                    lane: &lane,
                    batches_per_fsync: deltas.batches_per_fsync(),
                    regen: &regen,
                    reference: &reference,
                    store_dir: &item_store,
                    primary: Kind::Ingest,
                },
            )?;
        }
        remove_dir(&store);
        Ok(outcome)
    }

    fn fleet_scale_mixed(&self) -> Result<Outcome, String> {
        let seed = self.seed;
        let store = self.work.join("store");
        let posts = FLEET.div_ceil(PRELOAD_PER_POST);
        let mut session_lane = Lane::default();
        let (server, setups) = self.setups(FLEET_SETUPS, |i| {
            remove_dir(&store);
            let t0 = Instant::now();
            let server = self.spawn(&store)?;
            let ready = t0.elapsed().as_secs_f64();
            let mut session = Session {
                server,
                lane: Lane::default(),
                deltas: Deltas::default(),
            };
            let last = i + 1 == FLEET_SETUPS;
            if last {
                // The as_of floor, on the still-empty store; not part of set-up.
                self.empty_as_of_probe(&mut session)?;
            }
            let t1 = Instant::now();
            let mut lane = Lane::default();
            for post in 0..posts {
                let req = Req::ingest(post, gen::preload_post(seed, post, PRELOAD_PER_POST, FLEET));
                if !self.send(
                    session.server.port,
                    Phase::Probe,
                    LANE_PRELOAD,
                    None,
                    Duration::ZERO,
                    &req,
                    &mut lane,
                ) {
                    return Err(format!("preload post {post} failed"));
                }
            }
            let secs = ready + t1.elapsed().as_secs_f64();
            if last {
                session_lane = session.lane;
            }
            Ok((session.server, secs))
        })?;
        let mut session = Session {
            server,
            lane: session_lane,
            deltas: Deltas::default(),
        };

        let lanes = self.counted(&mut session, |env, port| {
            let start = Instant::now();
            let until = env.window_until(start, needed(0.9));
            let stop = AtomicBool::new(false);
            std::thread::scope(|scope| {
                let stream = scope.spawn(|| {
                    let mut out = Lane::default();
                    let mut k = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let due = start + Duration::from_secs_f64(k as f64 / STREAM_PER_S);
                        let now = Instant::now();
                        if now < due {
                            std::thread::sleep((due - now).min(Duration::from_millis(5)));
                            continue;
                        }
                        let req = Req::ingest(k, gen::stream_segment(seed, k, FLEET, BATCH_LINES));
                        env.send(
                            port,
                            Phase::Window,
                            LANE_STREAM,
                            Some(due),
                            now - due,
                            &req,
                            &mut out,
                        );
                        k += 1;
                    }
                    out
                });
                let mut dashboard =
                    env.closed_loop(port, Phase::Window, LANE_DASHBOARD, &until, |i| {
                        Some(if i % 2 == 0 {
                            Req::burndown()
                        } else {
                            Req::scrape()
                        })
                    });
                stop.store(true, Ordering::Relaxed);
                dashboard.absorb(stream.join().expect("stream thread"));
                dashboard
            })
        })?;
        session.lane.absorb(lanes);
        self.ingest_probe(&mut session)?;
        let (final_body, rss, lane, deltas) = self.finish(session)?;

        let mut reference = Reference::new(&self.case.classification);
        for post in 0..posts {
            reference.add(&gen::preload_post(seed, post, PRELOAD_PER_POST, FLEET))?;
        }
        for c in lane.calls.iter().filter(|c| c.kind == Kind::Ingest && c.ok) {
            match c.lane {
                LANE_STREAM => {
                    reference.add(&gen::stream_segment(seed, c.input, FLEET, BATCH_LINES))?
                }
                LANE_INGEST_PROBE => {
                    reference.add(&gen::probe_batch(seed, c.input, PROBE_INGEST_LINES))?
                }
                _ => {}
            }
        }
        let mut checks: Vec<String> =
            same_report(&final_body, &report(&self.case, &reference.state)?)
                .err()
                .into_iter()
                .collect();
        checks.extend(self.check_empty_as_of(&lane)?);

        let preload_bytes: u64 = (0..posts)
            .map(|p| gen::preload_post(seed, p, PRELOAD_PER_POST, FLEET).len() as u64)
            .sum();
        let mut outcome = self.outcome(
            &lane,
            &deltas,
            &[Kind::Burndown, Kind::Scrape],
            &setups,
            rss,
            dir_bytes(&store),
            preload_bytes,
            checks,
        )?;
        let late_max = lane
            .calls
            .iter()
            .filter(|c| c.lane == LANE_STREAM)
            .map(|c| c.late.as_secs_f64() * 1e3)
            .fold(0.0, f64::max);
        outcome.provenance.extend(kv(&[
            ("window", "1 closed-loop dashboard alternating burndown and /metrics, beside an open-loop re-report stream".into()),
            ("fleet_vehicles", FLEET.to_string()),
            ("preload", format!("{posts} posts of {PRELOAD_PER_POST} ctx-less v1 exposure lines")),
            ("stream", format!("{BATCH_LINES}-line v1 segments at {STREAM_PER_S}/s, open loop")),
            ("stream_late_max_ms", format!("{late_max:.3}")),
            ("setup_repeats", setups.len().to_string()),
            ("probes", format!("{PROBE_QUERIES} as_of on the empty store before the preload (not timed as set-up); {PROBE_INGESTS} closed-loop ingests of {PROBE_INGEST_LINES} lines after the window")),
        ]));
        if let Some(tracer) = &self.tracer {
            let regen = |lane: u64, input: u64| match lane {
                LANE_STREAM => gen::stream_segment(seed, input, FLEET, BATCH_LINES),
                _ => gen::probe_batch(seed, input, PROBE_INGEST_LINES),
            };
            outcome.layers = layers::replay(
                tracer,
                &Replay {
                    env: self,
                    lane: &lane,
                    batches_per_fsync: deltas.batches_per_fsync(),
                    regen: &regen,
                    reference: &reference.state,
                    store_dir: &store.join("default"),
                    primary: Kind::Burndown,
                },
            )?;
        }
        remove_dir(&store);
        Ok(outcome)
    }

    fn audit_replay(&self) -> Result<Outcome, String> {
        let seed = self.seed;
        let store = self.work.join("store");
        let item_store = store.join("default");
        remove_dir(&store);
        let stored_bytes = self.build_audit_store(&item_store)?;
        let (server, setups) = self.setups(9, |_| {
            let t0 = Instant::now();
            let server = self.spawn(&store)?;
            Ok((server, t0.elapsed().as_secs_f64()))
        })?;
        let mut session = Session {
            server,
            lane: Lane::default(),
            deltas: Deltas::default(),
        };
        let last_ts = AUDIT_T0_MS + (AUDIT_BATCHES - 1) * AUDIT_STEP_MS;
        let mut rng = Rng::new(&[seed, 7]);
        let lane = self.counted(&mut session, |env, port| {
            let until = env.window_until(Instant::now(), needed(0.9));
            env.closed_loop(port, Phase::Window, LANE_AUDITOR, &until, |_| {
                Some(Req::as_of(
                    AUDIT_T0_MS + rng.below(last_ts - AUDIT_T0_MS + 1),
                ))
            })
        })?;
        session.lane.absorb(lane);
        self.query_probe(&mut session)?;
        self.ingest_probe(&mut session)?;
        let (final_body, rss, lane, deltas) = self.finish(session)?;

        // Every as_of body against an append-order fold of the batches at
        // or before its cut; a few cuts also against the store's own
        // snapshot-plus-tail fold.
        let mut checks = Vec::new();
        let mut cuts: Vec<(u64, &Vec<u8>)> = lane
            .bodies
            .iter()
            .filter(|(cut, _)| *cut >= AUDIT_T0_MS)
            .map(|(cut, body)| (*cut, body))
            .collect();
        cuts.sort_by_key(|(cut, _)| *cut);
        let mut reference = Reference::new(&self.case.classification);
        let mut folded = 0u64;
        for (cut, body) in &cuts {
            while folded < AUDIT_BATCHES && AUDIT_T0_MS + folded * AUDIT_STEP_MS <= *cut {
                reference.add(&gen::audit_batch(seed, folded, AUDIT_FLEET, BATCH_LINES))?;
                folded += 1;
            }
            if let Err(e) = same_report(body, &report(&self.case, &reference.state)?) {
                checks.push(format!("as_of={cut}: {e}"));
            }
        }
        let reader = StoreReader::open(&item_store, self.case.classification.clone(), self.nproc)
            .map_err(|e| e.to_string())?;
        for (cut, body) in cuts.iter().step_by((cuts.len() / 4).max(1)) {
            let summary = reader.fold_as_of(Some(*cut)).map_err(|e| e.to_string())?;
            if let Err(e) = same_report(body, &report(&self.case, &summary.state)?) {
                checks.push(format!("as_of={cut} vs StoreReader::fold_as_of: {e}"));
            }
        }
        while folded < AUDIT_BATCHES {
            reference.add(&gen::audit_batch(seed, folded, AUDIT_FLEET, BATCH_LINES))?;
            folded += 1;
        }
        for c in lane.calls.iter().filter(|c| c.kind == Kind::Ingest && c.ok) {
            reference.add(&gen::probe_batch(seed, c.input, PROBE_INGEST_LINES))?;
        }
        checks.extend(same_report(&final_body, &report(&self.case, &reference.state)?).err());

        let mut outcome = self.outcome(
            &lane,
            &deltas,
            &[Kind::AsOf],
            &setups,
            rss,
            dir_bytes(&store),
            stored_bytes,
            checks,
        )?;
        outcome.provenance.extend(kv(&[
            ("window", "1 closed-loop auditor issuing as_of burn-downs at uniform cuts, no ingest".into()),
            ("stored_batches", AUDIT_BATCHES.to_string()),
            ("fleet_vehicles", AUDIT_FLEET.to_string()),
            ("batch_lines", BATCH_LINES.to_string()),
            ("line_format", "v2 with ctx and seq".into()),
            ("stored_input_bytes", stored_bytes.to_string()),
            ("setup_repeats", setups.len().to_string()),
            ("probes", format!("{PROBE_QUERIES} burndown + {PROBE_QUERIES} scrape, then {PROBE_INGESTS} closed-loop ingests of {PROBE_INGEST_LINES} lines, after the window")),
        ]));
        if let Some(tracer) = &self.tracer {
            let regen = |_lane: u64, input: u64| gen::probe_batch(seed, input, PROBE_INGEST_LINES);
            outcome.layers = layers::replay(
                tracer,
                &Replay {
                    env: self,
                    lane: &lane,
                    batches_per_fsync: deltas.batches_per_fsync(),
                    regen: &regen,
                    reference: &reference.state,
                    store_dir: &item_store,
                    primary: Kind::AsOf,
                },
            )?;
        }
        remove_dir(&store);
        Ok(outcome)
    }

    /// Writes the audit history through `qrn_store::Store` with synthetic
    /// timestamps, so the store's bytes depend on the seed alone. Returns
    /// the telemetry bytes stored.
    fn build_audit_store(&self, dir: &Path) -> Result<u64, String> {
        let config = StoreConfig {
            parse_shards: self.nproc,
            ..StoreConfig::default()
        };
        let mut store = Store::open(dir, self.case.classification.clone(), config)
            .map_err(|e| format!("cannot open the audit store: {e}"))?;
        let mut bytes = 0;
        for i in 0..AUDIT_BATCHES {
            let batch = gen::audit_batch(self.seed, i, AUDIT_FLEET, BATCH_LINES);
            bytes += batch.len() as u64;
            store
                .append_batch_deferred(&batch, AUDIT_T0_MS + i * AUDIT_STEP_MS)
                .map_err(|e| format!("audit store append failed: {e}"))?;
        }
        store
            .sync()
            .map_err(|e| format!("audit store sync failed: {e}"))?;
        Ok(bytes)
    }

    /// `as_of` bodies from the empty-store probe must equal the burn-down
    /// of an empty state.
    fn check_empty_as_of(&self, lane: &Lane) -> Result<Vec<String>, String> {
        let empty = report(&self.case, &FleetState::default())?;
        Ok(lane
            .bodies
            .iter()
            .filter_map(|(cut, body)| {
                same_report(body, &empty)
                    .err()
                    .map(|e| format!("as_of={cut} on the empty store: {e}"))
            })
            .collect())
    }

    /// The end-to-end metrics, over the window's requests of the
    /// workload's `primary` kinds: their latency percentiles and rate
    /// (events for ingest, answers otherwise), plus set-up time, peak
    /// memory and disk amplification. `extra_input` counts telemetry
    /// stored outside timed requests (preload posts are timed; the audit
    /// history is not).
    ///
    /// Every request kind's latencies are also reported under their own
    /// names as `kinds`: from the window when it has the samples a
    /// percentile needs, else from the probe, and left out when neither
    /// has. Those are informational: a kind a window does not issue is
    /// measured by a short sub-millisecond probe, too noisy to bound.
    #[allow(clippy::too_many_arguments)]
    fn outcome(
        &self,
        lane: &Lane,
        deltas: &Deltas,
        primary: &[Kind],
        setups: &[f64],
        rss: f64,
        disk: u64,
        extra_input: u64,
        checks: Vec<String>,
    ) -> Result<Outcome, String> {
        let mut provenance = BTreeMap::new();
        let of = |kind: Kind, phase: Phase| -> Vec<&Call> {
            lane.calls
                .iter()
                .filter(|c| c.kind == kind && c.phase == phase)
                .collect()
        };
        let latencies =
            |calls: &[&Call]| -> Vec<f64> { calls.iter().map(|c| c.latency_ms()).collect() };
        let rate = |calls: &[&Call]| -> Option<f64> {
            let first = calls.iter().map(|c| c.start).min()?;
            let last = calls.iter().map(|c| c.end).max()?;
            let units: u64 = calls
                .iter()
                .filter(|c| c.ok)
                .map(|c| if c.kind == Kind::Ingest { c.events } else { 1 })
                .sum();
            Some(units as f64 / (last - first).as_secs_f64())
        };

        let primary_names: Vec<&str> = primary.iter().map(|k| k.name()).collect();
        let primary_names = primary_names.join("+");
        let main: Vec<&Call> = primary.iter().flat_map(|&k| of(k, Phase::Window)).collect();
        let parts = sub_windows(&main);
        let pick = |p: f64| -> Result<(f64, &'static str), String> {
            let per_part: Option<Vec<f64>> = parts
                .iter()
                .map(|part| percentile(&latencies(part), p))
                .collect();
            match per_part {
                Some(values) => Ok((median(&values), "median over sub-windows")),
                None => percentile(&latencies(&main), p)
                    .map(|v| (v, "pooled window"))
                    .ok_or_else(|| {
                        format!(
                            "the window has {} {primary_names} samples, p{} needs {}",
                            main.len(),
                            p * 100.0,
                            needed(p)
                        )
                    }),
            }
        };
        let (p50, p50_from) = pick(0.5)?;
        let (p90, p90_from) = pick(0.9)?;
        let per_s = parts
            .iter()
            .map(|part| rate(part))
            .collect::<Option<Vec<f64>>>();
        let input: u64 = lane
            .calls
            .iter()
            .filter(|c| c.kind == Kind::Ingest)
            .map(|c| c.bytes)
            .sum::<u64>()
            + extra_input;
        let e2e = vec![
            Metric::new("primary_p50_ms", "ms", p50),
            Metric::new("primary_p90_ms", "ms", p90),
            Metric::new(
                "primary_per_s",
                "1/s",
                median(&per_s.ok_or("a sub-window of the window is empty")?),
            ),
            Metric::new("setup_s", "s", median(setups)),
            Metric::new("peak_rss_mb", "MiB", rss),
            Metric::new(
                "disk_bytes_per_input_byte",
                "ratio",
                disk as f64 / input as f64,
            ),
        ];
        provenance.insert(
            "primary".into(),
            format!(
                "{primary_names} (n={}; p50: {p50_from}, p90: {p90_from}, rate: median over sub-windows)",
                main.len()
            ),
        );

        let mut kinds = Vec::new();
        let closed_ingest = if primary == [Kind::Ingest] {
            Phase::Window
        } else {
            Phase::Probe
        };
        if let Some(r) = rate(&of(Kind::Ingest, closed_ingest)) {
            kinds.push(Metric::new("ingest_events_per_s", "1/s", r));
        }
        for (kind, prefix, ps) in [
            (Kind::Ingest, "ingest_ack", &[0.5f64, 0.9, 0.99][..]),
            (Kind::Burndown, "burndown", &[0.5f64, 0.9][..]),
            (Kind::Scrape, "scrape", &[0.5f64, 0.9][..]),
            (Kind::AsOf, "as_of", &[0.5f64, 0.9][..]),
        ] {
            let window = latencies(&of(kind, Phase::Window));
            let probe = latencies(&of(kind, Phase::Probe));
            for &p in ps {
                let name = format!("{prefix}_p{}_ms", (p * 100.0).round());
                let found = match (percentile(&window, p), percentile(&probe, p)) {
                    (Some(v), _) => Some((v, "window", window.len())),
                    (None, Some(v)) => Some((v, "probe", probe.len())),
                    (None, None) => None,
                };
                if let Some((value, source, n)) = found {
                    provenance.insert(format!("source.{name}"), format!("{source} (n={n})"));
                    kinds.push(Metric::new(&name, "ms", value));
                }
            }
        }
        let attempted = self.tally.attempted().max(1);
        kinds.push(Metric::new(
            "error_rate",
            "ratio",
            self.tally.failed() as f64 / attempted as f64,
        ));

        let window: Vec<&Call> = lane
            .calls
            .iter()
            .filter(|c| c.phase == Phase::Window)
            .collect();
        let window_s = window
            .iter()
            .map(|c| c.end)
            .max()
            .zip(window.iter().map(|c| c.start).min())
            .map_or(0.0, |(l, f)| (l - f).as_secs_f64());
        provenance.insert("window_s".into(), format!("{window_s:.3}"));
        provenance.insert(
            "setup_s_samples".into(),
            setups
                .iter()
                .map(|s| format!("{s:.4}"))
                .collect::<Vec<_>>()
                .join(","),
        );
        provenance.insert("server_non_200".into(), deltas.get("non_200").to_string());
        provenance.insert(
            "server_requests_counted".into(),
            deltas.get("qrn_http_requests_total").to_string(),
        );
        provenance.insert(
            "batches_per_fsync".into(),
            format!("{:.3}", deltas.batches_per_fsync()),
        );
        Ok(Outcome {
            e2e,
            kinds,
            layers: Vec::new(),
            provenance,
            check_failures: checks,
        })
    }
}

/// Splits a window's calls, by start time, into `SUB_WINDOWS` equal
/// spans. A median over them is not moved by a burst of host noise that
/// covers less than half of the window, as a pooled figure would be.
fn sub_windows<'a>(calls: &[&'a Call]) -> Vec<Vec<&'a Call>> {
    let mut parts = vec![Vec::new(); SUB_WINDOWS];
    let (Some(first), Some(last)) = (
        calls.iter().map(|c| c.start).min(),
        calls.iter().map(|c| c.start).max(),
    ) else {
        return parts;
    };
    let span = (last - first).as_secs_f64().max(f64::MIN_POSITIVE);
    for &c in calls {
        let at = (c.start - first).as_secs_f64() / span;
        parts[((at * SUB_WINDOWS as f64) as usize).min(SUB_WINDOWS - 1)].push(c);
    }
    parts
}

fn kv(pairs: &[(&str, String)]) -> BTreeMap<String, String> {
    pairs
        .iter()
        .map(|(k, v)| (k.to_string(), v.clone()))
        .collect()
}

/// Removes `dir` and forces the journal commit that frees its blocks, so
/// the deletion's disk work (discards included) lands here, outside any
/// timed phase, and not in the next run's fsyncs.
pub fn remove_dir(dir: &Path) {
    if std::fs::remove_dir_all(dir).is_ok() {
        if let Some(parent) = dir.parent() {
            let _ = std::fs::File::open(parent).and_then(|d| d.sync_all());
        }
    }
}

/// Bytes of every regular file under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}
