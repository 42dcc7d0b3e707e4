//! The batch simulation server: job table, backpressure, memoization,
//! worker pool wiring, the HTTP route table, and graceful drain.
//!
//! Life of a job: `POST /jobs` validates the spec, consults the result
//! cache (a hit completes instantly), statically verifies every point
//! before admission (`422` with the verifier's structured diagnostics on
//! failure; verdicts memoized per point), applies the queue bound (429 +
//! `Retry-After` on overflow), then enqueues an *expand* item on the
//! pool's injector. The worker that picks it up fans the sweep's points
//! onto its own deque — stealable by siblings — and runs point 0 inline.
//! Points execute in bounded cycle slices so cancellation (`DELETE`) and
//! drain (`POST /shutdown`) take effect within one slice; drain
//! checkpoints in-flight machines via `Machine::save_state` and persists
//! them to the snapshot directory, where the next start resumes them
//! cycle-exactly.

use std::collections::BTreeMap;
use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use isrf_kernel::sched::schedule_cache_stats;
use isrf_sim::tape_cache_stats;
use isrf_trace::{Histogram, MetricsRegistry};

use crate::exec::{analyze_point, PointRunner};
use crate::http::{read_request, HttpError, Limits, Request, Response};
use crate::pool::{Pool, WorkerHandle};
use crate::spec::JobSpec;
use isrf_trace::Json;

/// Server tunables.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` for an ephemeral port.
    pub addr: String,
    /// Worker threads (clamped to at least 1).
    pub workers: usize,
    /// Max jobs admitted but not yet picked up by a worker; beyond this
    /// `POST /jobs` answers 429.
    pub queue_cap: usize,
    /// Cycles per execution slice; the cancellation/drain latency bound
    /// (clamped to at least 1).
    pub chunk_cycles: u64,
    /// Where drain checkpoints go; `None` disables persistence.
    pub snapshot_dir: Option<PathBuf>,
    /// HTTP byte caps.
    pub limits: Limits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".into(),
            workers: 4,
            queue_cap: 64,
            chunk_cycles: 50_000,
            snapshot_dir: None,
            limits: Limits::default(),
        }
    }
}

/// Job lifecycle states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Accepted, waiting for a worker.
    Queued,
    /// At least one point has started.
    Running,
    /// All points finished; result rendered.
    Done,
    /// Some point failed; `errors` has diagnostics.
    Failed,
    /// Cancelled by `DELETE`.
    Cancelled,
    /// Drained to checkpoints (server shutting down).
    Suspended,
}

impl Phase {
    fn as_str(self) -> &'static str {
        match self {
            Phase::Queued => "queued",
            Phase::Running => "running",
            Phase::Done => "done",
            Phase::Failed => "failed",
            Phase::Cancelled => "cancelled",
            Phase::Suspended => "suspended",
        }
    }

    fn terminal(self) -> bool {
        matches!(self, Phase::Done | Phase::Failed | Phase::Cancelled)
    }
}

/// Per-point mutable state.
#[derive(Debug, Default)]
struct PointState {
    finished: bool,
    cycles: u64,
    error: Option<String>,
    /// Rendered outcome JSON (kept per point until the job finalizes).
    outcome: Option<Json>,
    /// Checkpoint captured at drain (`None` = restart from scratch).
    snap: Option<Vec<u8>>,
}

#[derive(Debug)]
struct JobState {
    phase: Phase,
    points: Vec<PointState>,
    done: usize,
    /// Rendered `points` array of the result payload.
    result: Option<Arc<String>>,
    /// Chrome trace JSON (single-point traced jobs).
    trace: Option<Arc<String>>,
    cached: bool,
}

struct Job {
    id: u64,
    spec: JobSpec,
    hash: u128,
    cancel: AtomicBool,
    submitted: Instant,
    state: Mutex<JobState>,
    /// Per-point checkpoints from a previous drain, taken on first run.
    restored: Mutex<Vec<Option<Vec<u8>>>>,
}

impl Job {
    fn new(id: u64, spec: JobSpec, hash: u128, restored: Vec<Option<Vec<u8>>>) -> Arc<Job> {
        let points = spec.points.iter().map(|_| PointState::default()).collect();
        // Sanctioned wall-clock read: feeds only the latency histogram,
        // never a result.
        #[allow(clippy::disallowed_methods)]
        let submitted = Instant::now();
        Arc::new(Job {
            id,
            spec,
            hash,
            cancel: AtomicBool::new(false),
            submitted,
            state: Mutex::new(JobState {
                phase: Phase::Queued,
                points,
                done: 0,
                result: None,
                trace: None,
                cached: false,
            }),
            restored: Mutex::new(restored),
        })
    }
}

/// A unit of pool work.
enum WorkItem {
    /// Fan a job's points out (runs point 0 inline).
    Expand(Arc<Job>),
    /// Run one point of a job.
    Point(Arc<Job>, usize),
}

/// Shared server state.
struct Core {
    cfg: ServerConfig,
    /// The actual bound address (the config may ask for port 0).
    bound: Mutex<Option<SocketAddr>>,
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    next_id: AtomicU64,
    /// Jobs admitted but not yet expanded (the bounded queue).
    queued: AtomicUsize,
    draining: AtomicBool,
    /// Rendered `points` arrays keyed by [`JobSpec::hash`].
    result_cache: Mutex<BTreeMap<u128, Arc<String>>>,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
    jobs_rejected: AtomicU64,
    /// Jobs rejected at admission by static verification (`422`).
    jobs_rejected_static: AtomicU64,
    /// Pre-admission verdicts keyed by [`crate::spec::PointSpec::verify_hash`]:
    /// `None` = clean, `Some` = the structured diagnostics that reject it.
    verify_cache: Mutex<BTreeMap<u128, Option<Arc<Vec<Json>>>>>,
    verify_hits: AtomicU64,
    verify_misses: AtomicU64,
    latency_ms: Mutex<Histogram>,
    started: Instant,
    pool: Mutex<Option<Pool<WorkItem>>>,
}

impl Core {
    fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| format!("bad hex: {e}")))
        .collect()
}

// ---------------------------------------------------------------------------
// Point execution on the worker pool
// ---------------------------------------------------------------------------

fn run_item(core: &Core, item: WorkItem, h: &WorkerHandle<'_, WorkItem>) {
    match item {
        WorkItem::Expand(job) => {
            core.queued.fetch_sub(1, Ordering::SeqCst);
            {
                let mut st = job.state.lock().unwrap();
                if st.phase.terminal() {
                    return;
                }
                st.phase = Phase::Running;
            }
            for idx in 1..job.spec.points.len() {
                h.push(WorkItem::Point(Arc::clone(&job), idx));
            }
            run_point(core, &job, 0);
        }
        WorkItem::Point(job, idx) => run_point(core, &job, idx),
    }
}

/// What one point execution concluded.
enum PointEnd {
    Finished(crate::exec::PointOutcome),
    Cancelled,
    Drained(Option<Vec<u8>>, u64),
    Failed(String),
}

fn run_point(core: &Core, job: &Arc<Job>, idx: usize) {
    if job.cancel.load(Ordering::SeqCst) {
        return settle_point(core, job, idx, PointEnd::Cancelled);
    }
    let restored = job
        .restored
        .lock()
        .unwrap()
        .get_mut(idx)
        .and_then(Option::take);
    if core.draining() {
        // Don't start (or resume) new work during drain: hand the restored
        // checkpoint (if any) straight back to the persister.
        return settle_point(core, job, idx, PointEnd::Drained(restored, 0));
    }
    let spec = &job.spec.points[idx];
    let trace = job.spec.trace;
    let chunk = core.cfg.chunk_cycles;
    let end = catch_unwind(AssertUnwindSafe(|| {
        let mut runner = match match &restored {
            Some(snap) => PointRunner::resume(spec, trace, snap),
            None => PointRunner::new(spec, trace),
        } {
            Ok(r) => r,
            Err(e) => return PointEnd::Failed(e),
        };
        // `run` slices internally; it returns None only when the closure
        // vetoed the next slice (cancellation or drain).
        match runner.run(chunk, |cycles| {
            job.state.lock().unwrap().points[idx].cycles = cycles;
            !job.cancel.load(Ordering::SeqCst) && !core.draining()
        }) {
            Some(out) => PointEnd::Finished(out),
            None if job.cancel.load(Ordering::SeqCst) => PointEnd::Cancelled,
            None => PointEnd::Drained(Some(runner.checkpoint()), runner.cycles()),
        }
    }));
    let end = end.unwrap_or_else(|p| {
        let msg = p
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic".into());
        PointEnd::Failed(format!("simulation panicked: {msg}"))
    });
    settle_point(core, job, idx, end);
}

fn settle_point(core: &Core, job: &Arc<Job>, idx: usize, end: PointEnd) {
    let mut st = job.state.lock().unwrap();
    match end {
        PointEnd::Finished(out) => {
            let trace_json = out.trace_json.clone();
            st.points[idx].cycles = out.stats.cycles;
            st.points[idx].outcome = Some(out.to_json());
            st.points[idx].finished = true;
            st.done += 1;
            if let Some(t) = trace_json {
                st.trace = Some(Arc::new(t));
            }
            if st.done == st.points.len() && st.phase == Phase::Running {
                finalize(core, job, &mut st);
            }
        }
        PointEnd::Cancelled => {
            if !st.phase.terminal() {
                st.phase = Phase::Cancelled;
                core.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
            }
        }
        PointEnd::Drained(snap, cycles) => {
            st.points[idx].snap = snap;
            if cycles > 0 {
                st.points[idx].cycles = cycles;
            }
            if !st.phase.terminal() {
                st.phase = Phase::Suspended;
            }
        }
        PointEnd::Failed(msg) => {
            st.points[idx].error = Some(msg);
            if !st.phase.terminal() {
                st.phase = Phase::Failed;
                core.jobs_failed.fetch_add(1, Ordering::Relaxed);
                // Stop sibling points early; they observe the flag as a
                // cancellation but the phase stays Failed.
                job.cancel.store(true, Ordering::SeqCst);
            }
        }
    }
}

/// All points done: render the result payload, fill the cache, record
/// latency.
fn finalize(core: &Core, job: &Arc<Job>, st: &mut JobState) {
    let mut body = String::from("[");
    for (i, p) in st.points.iter_mut().enumerate() {
        if i > 0 {
            body.push(',');
        }
        let outcome = p.outcome.take().expect("finished point has an outcome");
        outcome.render_into(&mut body);
    }
    body.push(']');
    let rendered = Arc::new(body);
    st.result = Some(Arc::clone(&rendered));
    st.phase = Phase::Done;
    if !job.spec.trace {
        core.result_cache
            .lock()
            .unwrap()
            .entry(job.hash)
            .or_insert(rendered);
    }
    core.jobs_done.fetch_add(1, Ordering::Relaxed);
    let ms = job
        .submitted
        .elapsed()
        .as_millis()
        .min(u128::from(u64::MAX)) as u64;
    core.latency_ms.lock().unwrap().observe(ms);
}

// ---------------------------------------------------------------------------
// Routes
// ---------------------------------------------------------------------------

fn job_status_json(job: &Job) -> Json {
    let st = job.state.lock().unwrap();
    let mut obj = vec![
        ("id".into(), Json::u64(job.id)),
        ("status".into(), Json::str(st.phase.as_str())),
        ("points".into(), Json::u64(st.points.len() as u64)),
        ("points_done".into(), Json::u64(st.done as u64)),
        (
            "cycles".into(),
            Json::u64(st.points.iter().map(|p| p.cycles).sum()),
        ),
        ("cached".into(), Json::Bool(st.cached)),
        ("hash".into(), Json::str(format!("{:032x}", job.hash))),
    ];
    let errors: Vec<Json> = st
        .points
        .iter()
        .filter_map(|p| p.error.as_ref())
        .map(|e| Json::str(e.clone()))
        .collect();
    if !errors.is_empty() {
        obj.push(("errors".into(), Json::Arr(errors)));
    }
    Json::Obj(obj)
}

fn submit(core: &Arc<Core>, req: &Request) -> Response {
    if core.draining() {
        return Response::error(503, "server is draining");
    }
    let body = match std::str::from_utf8(&req.body) {
        Ok(s) => s,
        Err(_) => return Response::error(400, "body is not UTF-8"),
    };
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return Response::error(400, &format!("invalid JSON: {e}")),
    };
    let spec = match JobSpec::from_json(&parsed) {
        Ok(s) => s,
        Err(e) => return Response::error(400, &e),
    };
    let hash = spec.hash();
    core.jobs_submitted.fetch_add(1, Ordering::Relaxed);

    // Memoized? Complete instantly without touching the queue.
    if !spec.trace {
        let hit = core.result_cache.lock().unwrap().get(&hash).cloned();
        if let Some(rendered) = hit {
            core.cache_hits.fetch_add(1, Ordering::Relaxed);
            let id = core.next_id.fetch_add(1, Ordering::SeqCst);
            let job = Job::new(id, spec, hash, Vec::new());
            {
                let mut st = job.state.lock().unwrap();
                let n = st.points.len();
                for p in st.points.iter_mut() {
                    p.finished = true;
                }
                st.done = n;
                st.phase = Phase::Done;
                st.result = Some(rendered);
                st.cached = true;
            }
            core.jobs.lock().unwrap().insert(id, job);
            return Response::json(
                200,
                &Json::Obj(vec![
                    ("id".into(), Json::u64(id)),
                    ("status".into(), Json::str("done")),
                    ("cached".into(), Json::Bool(true)),
                ]),
            );
        }
        core.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    // Pre-admission static verification: every point is analyzed — and
    // the verdict memoized by `PointSpec::verify_hash` — before anything
    // touches the queue, so a statically hazardous program is rejected
    // here with the verifier's structured diagnostics instead of
    // surfacing as a worker-side failure after admission.
    let mut rejected: Vec<Json> = Vec::new();
    for (idx, point) in spec.points.iter().enumerate() {
        let key = point.verify_hash();
        let cached = core.verify_cache.lock().unwrap().get(&key).cloned();
        let verdict = match cached {
            Some(v) => {
                core.verify_hits.fetch_add(1, Ordering::Relaxed);
                v
            }
            None => {
                core.verify_misses.fetch_add(1, Ordering::Relaxed);
                let v = match analyze_point(point) {
                    Ok(()) => None,
                    Err(diags) => Some(Arc::new(diags)),
                };
                core.verify_cache.lock().unwrap().insert(key, v.clone());
                v
            }
        };
        if let Some(diags) = verdict {
            rejected.push(Json::Obj(vec![
                ("point".into(), Json::u64(idx as u64)),
                ("diagnostics".into(), Json::Arr(diags.as_ref().clone())),
            ]));
        }
    }
    if !rejected.is_empty() {
        core.jobs_rejected_static.fetch_add(1, Ordering::Relaxed);
        return Response::json(
            422,
            &Json::Obj(vec![
                ("error".into(), Json::str("static verification failed")),
                ("rejected_points".into(), Json::Arr(rejected)),
            ]),
        );
    }

    // Bounded admission: reject rather than buffer without bound.
    if core.queued.load(Ordering::SeqCst) >= core.cfg.queue_cap {
        core.jobs_rejected.fetch_add(1, Ordering::Relaxed);
        return Response::json(
            429,
            &Json::Obj(vec![
                ("error".into(), Json::str("job queue is full")),
                (
                    "queue_depth".into(),
                    Json::u64(core.queued.load(Ordering::SeqCst) as u64),
                ),
                ("queue_cap".into(), Json::u64(core.cfg.queue_cap as u64)),
            ]),
        )
        .with_header("Retry-After", "1");
    }

    let id = core.next_id.fetch_add(1, Ordering::SeqCst);
    let job = Job::new(id, spec, hash, Vec::new());
    core.jobs.lock().unwrap().insert(id, Arc::clone(&job));
    core.queued.fetch_add(1, Ordering::SeqCst);
    if let Some(pool) = core.pool.lock().unwrap().as_ref() {
        pool.inject(WorkItem::Expand(job));
    }
    Response::json(
        202,
        &Json::Obj(vec![
            ("id".into(), Json::u64(id)),
            ("status".into(), Json::str("queued")),
            ("hash".into(), Json::str(format!("{hash:032x}"))),
        ]),
    )
}

fn job_result(job: &Job) -> Response {
    let st = job.state.lock().unwrap();
    match st.phase {
        Phase::Done => {
            let points = st.result.as_ref().expect("done job has a result");
            let mut body = String::with_capacity(points.len() + 64);
            body.push_str(&format!(
                "{{\"id\":{},\"status\":\"done\",\"cached\":{},\"points\":",
                job.id, st.cached
            ));
            body.push_str(points);
            body.push('}');
            Response::json_raw(200, body)
        }
        phase => {
            let mut obj = vec![
                ("id".into(), Json::u64(job.id)),
                ("status".into(), Json::str(phase.as_str())),
            ];
            let errors: Vec<Json> = st
                .points
                .iter()
                .filter_map(|p| p.error.as_ref())
                .map(|e| Json::str(e.clone()))
                .collect();
            if !errors.is_empty() {
                obj.push(("errors".into(), Json::Arr(errors)));
            }
            Response::json(409, &Json::Obj(obj))
        }
    }
}

fn job_trace(job: &Job) -> Response {
    let st = job.state.lock().unwrap();
    match &st.trace {
        Some(t) => Response::json_raw(200, t.as_ref().clone()),
        None => Response::error(404, "no trace for this job (submit with \"trace\": true)"),
    }
}

fn cancel_job(core: &Core, job: &Job) -> Response {
    job.cancel.store(true, Ordering::SeqCst);
    let mut st = job.state.lock().unwrap();
    if !st.phase.terminal() && st.phase != Phase::Suspended {
        // A queued job dies right here; a running one settles within a
        // slice, but report the final state immediately.
        st.phase = Phase::Cancelled;
        core.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    }
    Response::json(
        200,
        &Json::Obj(vec![
            ("id".into(), Json::u64(job.id)),
            ("status".into(), Json::str(st.phase.as_str())),
        ]),
    )
}

fn metrics(core: &Core) -> Response {
    let mut reg = MetricsRegistry::new();
    reg.set(
        "serve_queue_depth",
        core.queued.load(Ordering::SeqCst) as u64,
    );
    reg.set("serve_queue_cap", core.cfg.queue_cap as u64);
    reg.set(
        "serve_jobs_submitted",
        core.jobs_submitted.load(Ordering::Relaxed),
    );
    reg.set("serve_jobs_done", core.jobs_done.load(Ordering::Relaxed));
    reg.set(
        "serve_jobs_failed",
        core.jobs_failed.load(Ordering::Relaxed),
    );
    reg.set(
        "serve_jobs_cancelled",
        core.jobs_cancelled.load(Ordering::Relaxed),
    );
    reg.set(
        "serve_jobs_rejected_429",
        core.jobs_rejected.load(Ordering::Relaxed),
    );
    reg.set(
        "serve_jobs_rejected_static",
        core.jobs_rejected_static.load(Ordering::Relaxed),
    );
    reg.set(
        "serve_verify_cache_hits",
        core.verify_hits.load(Ordering::Relaxed),
    );
    reg.set(
        "serve_verify_cache_misses",
        core.verify_misses.load(Ordering::Relaxed),
    );
    reg.set(
        "serve_verify_cache_entries",
        core.verify_cache.lock().unwrap().len() as u64,
    );
    reg.set(
        "serve_result_cache_hits",
        core.cache_hits.load(Ordering::Relaxed),
    );
    reg.set(
        "serve_result_cache_misses",
        core.cache_misses.load(Ordering::Relaxed),
    );
    reg.set(
        "serve_result_cache_entries",
        core.result_cache.lock().unwrap().len() as u64,
    );
    let (sh, sm) = schedule_cache_stats();
    reg.set("sched_cache_hits", sh);
    reg.set("sched_cache_misses", sm);
    let (th, tm) = tape_cache_stats();
    reg.set("tape_cache_hits", th);
    reg.set("tape_cache_misses", tm);
    let uptime = core.started.elapsed();
    let uptime_ms = uptime.as_millis().max(1) as u64;
    reg.set("serve_uptime_ms", uptime_ms);
    let done = core.jobs_done.load(Ordering::Relaxed);
    reg.set("serve_jobs_per_sec_x1000", done * 1_000_000 / uptime_ms);
    if let Some(pool) = core.pool.lock().unwrap().as_ref() {
        for (i, w) in pool.worker_stats().iter().enumerate() {
            reg.set(&format!("worker_{i}_items"), w.processed);
            reg.set(&format!("worker_{i}_stolen"), w.stolen);
            reg.set(&format!("worker_{i}_busy_micros"), w.busy_micros);
            reg.set(
                &format!("worker_{i}_utilization_pct"),
                w.busy_micros / 10 / uptime_ms.max(1),
            );
        }
    }
    reg.put_histogram(
        "serve_job_latency_ms",
        core.latency_ms.lock().unwrap().clone(),
    );
    Response::text(200, reg.render())
}

fn route(core: &Arc<Core>, req: &Request) -> Response {
    let segs: Vec<&str> = req.path().split('/').filter(|s| !s.is_empty()).collect();
    let find = |id: &str| -> Result<Arc<Job>, Response> {
        let id: u64 = id
            .parse()
            .map_err(|_| Response::error(400, "job id must be an integer"))?;
        core.jobs
            .lock()
            .unwrap()
            .get(&id)
            .cloned()
            .ok_or_else(|| Response::error(404, "no such job"))
    };
    match (req.method.as_str(), segs.as_slice()) {
        ("POST", ["jobs"]) => submit(core, req),
        ("GET", ["jobs", id]) => match find(id) {
            Ok(job) => Response::json(200, &job_status_json(&job)),
            Err(r) => r,
        },
        ("GET", ["jobs", id, "result"]) => match find(id) {
            Ok(job) => job_result(&job),
            Err(r) => r,
        },
        ("GET", ["jobs", id, "trace"]) => match find(id) {
            Ok(job) => job_trace(&job),
            Err(r) => r,
        },
        ("DELETE", ["jobs", id]) => match find(id) {
            Ok(job) => cancel_job(core, &job),
            Err(r) => r,
        },
        ("GET", ["metrics"]) => metrics(core),
        ("GET", ["healthz"]) => Response::text(200, "ok\n"),
        ("POST", ["shutdown"]) => shutdown(core),
        ("GET" | "POST" | "DELETE", _) => Response::error(404, "no such route"),
        _ => Response::error(405, "method not supported"),
    }
}

// ---------------------------------------------------------------------------
// Drain & restore
// ---------------------------------------------------------------------------

fn shutdown(core: &Arc<Core>) -> Response {
    if core.draining.swap(true, Ordering::SeqCst) {
        return Response::error(409, "already draining");
    }
    // Workers observe the flag within one slice; queued items settle as
    // Suspended. Then join the pool and persist every non-terminal job.
    if let Some(pool) = core.pool.lock().unwrap().as_mut() {
        pool.shutdown();
    }
    let persisted = persist_suspended(core);
    Response::json(
        200,
        &Json::Obj(vec![
            ("status".into(), Json::str("stopped")),
            ("persisted".into(), Json::u64(persisted)),
        ]),
    )
}

fn persist_suspended(core: &Core) -> u64 {
    let Some(dir) = &core.cfg.snapshot_dir else {
        return 0;
    };
    if std::fs::create_dir_all(dir).is_err() {
        return 0;
    }
    let jobs = core.jobs.lock().unwrap();
    let mut persisted = 0;
    for job in jobs.values() {
        let mut st = job.state.lock().unwrap();
        if st.phase.terminal() {
            continue;
        }
        st.phase = Phase::Suspended;
        let mut obj = vec![
            ("id".into(), Json::u64(job.id)),
            ("spec".into(), job.spec.to_json()),
        ];
        let points: Vec<Json> = st
            .points
            .iter()
            .map(|p| match &p.snap {
                Some(bytes) => Json::str(hex_encode(bytes)),
                None => Json::Null,
            })
            .collect();
        obj.push(("points".into(), Json::Arr(points)));
        let path = dir.join(format!("job-{}.json", job.id));
        let tmp = dir.join(format!(".job-{}.json.tmp", job.id));
        let body = Json::Obj(obj).render();
        let ok = std::fs::write(&tmp, body).is_ok() && std::fs::rename(&tmp, &path).is_ok();
        if ok {
            persisted += 1;
        }
    }
    persisted
}

/// Load drained jobs from the snapshot directory; returns them with their
/// restored per-point checkpoints. Files are consumed (deleted) on load.
fn restore_jobs(core: &Core) -> Vec<Arc<Job>> {
    let Some(dir) = &core.cfg.snapshot_dir else {
        return Vec::new();
    };
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("job-") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for path in paths {
        let Ok(text) = std::fs::read_to_string(&path) else {
            continue;
        };
        let Some(job) = parse_persisted(core, &text) else {
            continue;
        };
        let _ = std::fs::remove_file(&path);
        out.push(job);
    }
    out
}

fn parse_persisted(core: &Core, text: &str) -> Option<Arc<Job>> {
    let v = Json::parse(text).ok()?;
    let id = v.get("id")?.as_u64()?;
    let spec = JobSpec::from_json(v.get("spec")?).ok()?;
    let snaps: Vec<Option<Vec<u8>>> = v
        .get("points")?
        .as_arr()?
        .iter()
        .map(|p| match p {
            Json::Null => Some(None),
            other => hex_decode(other.as_str()?).ok().map(Some),
        })
        .collect::<Option<Vec<_>>>()?;
    if snaps.len() != spec.points.len() {
        return None;
    }
    // Keep fresh ids strictly above every restored id.
    let mut next = core.next_id.load(Ordering::SeqCst);
    while next <= id {
        match core
            .next_id
            .compare_exchange(next, id + 1, Ordering::SeqCst, Ordering::SeqCst)
        {
            Ok(_) => break,
            Err(cur) => next = cur,
        }
    }
    let hash = spec.hash();
    Some(Job::new(id, spec, hash, snaps))
}

// ---------------------------------------------------------------------------
// The server proper
// ---------------------------------------------------------------------------

/// A running server: accept loop + worker pool.
pub struct Server {
    core: Arc<Core>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    /// Bind, restore drained jobs (when a snapshot dir is configured),
    /// spawn the worker pool and the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn start(mut cfg: ServerConfig) -> io::Result<Server> {
        cfg.chunk_cycles = cfg.chunk_cycles.max(1);
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers = cfg.workers;
        // Sanctioned wall-clock read: feeds only the uptime/throughput
        // metrics, never a result.
        #[allow(clippy::disallowed_methods)]
        let started = Instant::now();
        let core = Arc::new(Core {
            cfg,
            bound: Mutex::new(Some(addr)),
            jobs: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            queued: AtomicUsize::new(0),
            draining: AtomicBool::new(false),
            result_cache: Mutex::new(BTreeMap::new()),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_done: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_rejected_static: AtomicU64::new(0),
            verify_cache: Mutex::new(BTreeMap::new()),
            verify_hits: AtomicU64::new(0),
            verify_misses: AtomicU64::new(0),
            latency_ms: Mutex::new(Histogram::default()),
            started,
            pool: Mutex::new(None),
        });

        let weak: Weak<Core> = Arc::downgrade(&core);
        let pool = Pool::new(workers, move |_, item, h| {
            if let Some(core) = weak.upgrade() {
                run_item(&core, item, h);
            }
        });
        *core.pool.lock().unwrap() = Some(pool);

        let restored = restore_jobs(&core);
        for job in restored {
            core.jobs.lock().unwrap().insert(job.id, Arc::clone(&job));
            core.queued.fetch_add(1, Ordering::SeqCst);
            if let Some(pool) = core.pool.lock().unwrap().as_ref() {
                pool.inject(WorkItem::Expand(job));
            }
        }

        let accept_core = Arc::clone(&core);
        let accept = std::thread::Builder::new()
            .name("isrf-serve-accept".into())
            .spawn(move || {
                for conn in listener.incoming() {
                    if accept_core.draining() {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    let core = Arc::clone(&accept_core);
                    let _ = std::thread::Builder::new()
                        .name("isrf-serve-conn".into())
                        .spawn(move || handle_connection(&core, stream));
                }
            })?;

        Ok(Server {
            core,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Block until the accept loop exits (a `POST /shutdown` arrived).
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }

    /// Drain and stop from process context (same path as `POST /shutdown`),
    /// then join the accept loop.
    pub fn stop(mut self) {
        let _ = shutdown(&self.core);
        unblock_accept(self.addr);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
    }
}

/// The accept loop only re-checks the drain flag after `accept` returns;
/// poke it with a throwaway connection.
fn unblock_accept(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
}

fn handle_connection(core: &Arc<Core>, stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    // Request/response bodies are small; Nagle + delayed ACK would add
    // tens of milliseconds per round trip.
    let _ = stream.set_nodelay(true);
    let write_half = stream.try_clone();
    let Ok(mut w) = write_half else { return };
    let mut r = BufReader::new(stream);
    loop {
        match read_request(&mut r, &core.cfg.limits) {
            Ok(None) => return,
            Ok(Some(req)) => {
                let close = req.wants_close();
                let stop_after = req.method == "POST" && req.path() == "/shutdown";
                let resp = route(core, &req);
                if resp.write_to(&mut w, close || stop_after).is_err() {
                    return;
                }
                if stop_after {
                    let _ = w.flush();
                    if let Some(addr) = *core.bound.lock().unwrap() {
                        unblock_accept(addr);
                    }
                    return;
                }
                if close {
                    return;
                }
            }
            Err(HttpError::Truncated(_)) | Err(HttpError::Io(_)) => return,
            Err(e) => {
                let _ = Response::error(e.status(), &format!("{e}")).write_to(&mut w, true);
                return;
            }
        }
    }
}
