//! The served workload: an in-process `isrf_serve::Server` with
//! [`workers`] workers, driven closed loop by as many client connections
//! over real TCP. Every served result is checked against a direct
//! in-process run.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

use isrf_apps::{prepare_app, Profile};
use isrf_core::config::ConfigName;
use isrf_serve::{Client, Json, Server, ServerConfig};

use crate::points::{shuffled, Point};
use crate::span::Spans;
use crate::Rng;

/// Server workers and client connections: one per CPU, at most four, so
/// a large host does not multiply the threads and the memory the server's
/// unbounded result cache takes.
pub fn workers() -> usize {
    crate::host::nproc().min(4)
}

/// Points per sweep job.
pub const SWEEP_POINTS: usize = 8;
const TIMEOUT: Duration = Duration::from_secs(120);

/// The job grid: every app on every configuration, Small profile, in the
/// seeded order.
pub fn grid(seed: u64) -> Vec<Point> {
    shuffled(&ConfigName::ALL, seed)
}

fn point_json(p: &Point) -> String {
    format!(r#"{{"app":"{}","config":"{}"}}"#, p.app, p.cfg)
}

/// The submission body of a job over `pts`, salted with `nonce`.
fn job_body(pts: &[Point], nonce: &str) -> String {
    match pts {
        [p] => format!(
            r#"{{"app":"{}","config":"{}","nonce":"{nonce}"}}"#,
            p.app, p.cfg
        ),
        _ => {
            let sweep: Vec<String> = pts.iter().map(point_json).collect();
            format!(r#"{{"sweep":[{}],"nonce":"{nonce}"}}"#, sweep.join(","))
        }
    }
}

/// The kind of a job in the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A single point with a fresh nonce: misses the result cache.
    Unique,
    /// An exact repeat of an earlier spec: served from the result cache.
    Repeat,
    /// A multi-point sweep with a fresh nonce: fans out across workers.
    Sweep,
}

/// One completed (or failed) job.
#[derive(Debug, Clone)]
pub struct JobRec {
    pub kind: Kind,
    /// Submit to result fetched, and its three requests.
    pub latency_s: f64,
    pub submit_s: f64,
    pub wait_s: f64,
    pub result_s: f64,
    /// Simulated cycles over the job's points.
    pub cycles: u64,
    pub error: Option<String>,
}

/// Cycles and output words of a direct run, per grid point.
pub type Oracle = BTreeMap<String, (u64, Vec<Vec<u64>>)>;

/// Run every grid point directly, as the reference for served results.
pub fn oracle(grid: &[Point]) -> Oracle {
    grid.iter()
        .map(|p| {
            let mut pr = prepare_app(p.app, p.cfg, Profile::Small);
            let stats = pr.machine.run(&pr.program);
            let outs = pr
                .outputs
                .iter()
                .map(|&(b, w)| {
                    let words = pr.machine.mem().memory().read_block(b, w as usize);
                    words.into_iter().map(u64::from).collect()
                })
                .collect();
            (p.to_string(), (stats.cycles, outs))
        })
        .collect()
}

/// Check a result payload against the oracle; returns its total cycles.
fn check(result: &Json, pts: &[Point], oracle: &Oracle) -> Result<u64, String> {
    let got = result
        .get("points")
        .and_then(Json::as_arr)
        .ok_or("result has no points")?;
    if got.len() != pts.len() {
        return Err(format!(
            "{} points served, {} submitted",
            got.len(),
            pts.len()
        ));
    }
    let mut cycles = 0;
    for (g, p) in got.iter().zip(pts) {
        let c = g
            .get("cycles")
            .and_then(Json::as_u64)
            .ok_or("point has no cycles")?;
        let outs = g
            .get("outputs")
            .and_then(Json::as_arr)
            .ok_or("point has no outputs")?
            .iter()
            .map(|o| {
                o.get("words")
                    .and_then(Json::as_arr)
                    .map(|ws| ws.iter().filter_map(Json::as_u64).collect::<Vec<u64>>())
            })
            .collect::<Option<Vec<_>>>()
            .ok_or("output without words")?;
        let (ec, eo) = &oracle[&p.to_string()];
        if c != *ec || outs != *eo {
            return Err(format!("{p}: served result differs from a direct run"));
        }
        cycles += c;
    }
    Ok(cycles)
}

/// Submit a job, wait for it to finish and fetch its result.
fn submit_and_wait(
    client: &mut Client,
    body: &str,
    pts: &[Point],
    kind: Kind,
    oracle: Option<&Oracle>,
    spans: &mut Spans,
) -> JobRec {
    let mut rec = JobRec {
        kind,
        latency_s: 0.0,
        submit_s: 0.0,
        wait_s: 0.0,
        result_s: 0.0,
        cycles: 0,
        error: None,
    };
    let job = spans.enter("job");
    let t0 = Instant::now();
    let r = (|| -> Result<Json, String> {
        let resp = spans
            .time("serve.submit", || client.post("/jobs", body))
            .map_err(|e| e.to_string())?;
        rec.submit_s = t0.elapsed().as_secs_f64();
        if resp.status != 200 && resp.status != 202 {
            return Err(format!("submit answered {}", resp.status));
        }
        let id = resp
            .json()?
            .get("id")
            .and_then(Json::as_u64)
            .ok_or("no job id")?;
        let t1 = Instant::now();
        let st = spans
            .time("serve.wait", || client.wait_job(id, TIMEOUT))
            .map_err(|e| e.to_string())?;
        rec.wait_s = t1.elapsed().as_secs_f64();
        if st.get("status").and_then(Json::as_str) != Some("done") {
            return Err(format!("job {id} ended as {}", st.render()));
        }
        let t2 = Instant::now();
        let resp = spans
            .time("serve.result", || client.get(&format!("/jobs/{id}/result")))
            .map_err(|e| e.to_string())?;
        rec.result_s = t2.elapsed().as_secs_f64();
        if resp.status != 200 {
            return Err(format!("result fetch answered {}", resp.status));
        }
        resp.json()
    })();
    rec.latency_s = t0.elapsed().as_secs_f64();
    spans.exit(job);
    let checked = r.and_then(|v| match oracle {
        Some(o) => spans.time("bench.check", || check(&v, pts, o)),
        None => Ok(0),
    });
    match checked {
        Ok(c) => rec.cycles = c,
        Err(e) => rec.error = Some(e),
    }
    rec
}

/// A started server and the specs of its warm-up jobs.
pub struct Warm {
    pub server: Server,
    pub warm: Vec<(String, Vec<Point>)>,
    pub failures: Vec<String>,
}

/// Start a server with `workers` workers and submit one warm-up job per
/// grid point from a single connection.
pub fn start_and_warm(grid: &[Point], workers: usize, spans: &mut Spans) -> Warm {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap: 256,
        ..ServerConfig::default()
    })
    .expect("bind an ephemeral localhost port");
    let mut client = Client::new(server.addr());
    let mut warm = Vec::new();
    let mut failures = Vec::new();
    for (i, p) in grid.iter().enumerate() {
        let pts = vec![*p];
        let body = job_body(&pts, &format!("warm-{i}"));
        spans.set_group(i as u64);
        let rec = submit_and_wait(&mut client, &body, &pts, Kind::Unique, None, spans);
        if let Some(e) = rec.error {
            failures.push(format!("warm-up {p}: {e}"));
        }
        warm.push((body, pts));
    }
    Warm {
        server,
        warm,
        failures,
    }
}

/// Check the warm-up results against the oracle by fetching them again
/// (they are served from the result cache).
pub fn check_warm(addr: SocketAddr, warm: &[(String, Vec<Point>)], oracle: &Oracle) -> Vec<String> {
    let mut client = Client::new(addr);
    let mut off = Spans::new(false, Instant::now());
    warm.iter()
        .filter_map(|(body, pts)| {
            let rec = submit_and_wait(&mut client, body, pts, Kind::Repeat, Some(oracle), &mut off);
            rec.error.map(|e| format!("warm-up {}: {e}", pts[0]))
        })
        .collect()
}

/// The kinds of a block of ten jobs, before the seeded shuffle.
const BLOCK: [Kind; 10] = [
    Kind::Unique,
    Kind::Unique,
    Kind::Unique,
    Kind::Unique,
    Kind::Unique,
    Kind::Unique,
    Kind::Unique,
    Kind::Repeat,
    Kind::Repeat,
    Kind::Sweep,
];

/// One client's job stream. Jobs come in blocks of ten — seven unique
/// single points, two exact repeats of an earlier spec (the client's own
/// or a warm-up job's), one sweep of [`SWEEP_POINTS`] points — in an
/// order drawn from the seed. Unique points and sweep points each walk
/// seeded permutations of the grid. The mix and the grid coverage are
/// therefore fixed; the seed only reorders.
struct JobStream {
    rng: Rng,
    grid: Vec<Point>,
    singles: Vec<Point>,
    sweeps: Vec<Point>,
    block: Vec<Kind>,
    history: Vec<(String, Vec<Point>)>,
    nonce: String,
    n: u64,
}

impl JobStream {
    fn new(seed: u64, client: usize, grid: &[Point], warm: &[(String, Vec<Point>)]) -> JobStream {
        JobStream {
            rng: Rng::new(seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
            grid: grid.to_vec(),
            singles: Vec::new(),
            sweeps: Vec::new(),
            block: Vec::new(),
            history: warm.to_vec(),
            nonce: format!("s{seed}-c{client}"),
            n: 0,
        }
    }

    /// Take `k` points from `pool`, refilling it with a fresh permutation
    /// of the grid when it runs dry.
    fn take(rng: &mut Rng, grid: &[Point], pool: &mut Vec<Point>, k: usize) -> Vec<Point> {
        if pool.len() < k {
            *pool = grid.to_vec();
            rng.shuffle(pool);
        }
        pool.split_off(pool.len() - k)
    }

    fn next(&mut self) -> (String, Vec<Point>, Kind) {
        if self.block.is_empty() {
            self.block = BLOCK.to_vec();
            self.rng.shuffle(&mut self.block);
        }
        let kind = self.block.pop().expect("refilled above");
        let nonce = format!("{}-j{}", self.nonce, self.n);
        self.n += 1;
        let pts = match kind {
            Kind::Repeat => {
                let (body, pts) =
                    self.history[self.rng.below(self.history.len() as u64) as usize].clone();
                return (body, pts, kind);
            }
            Kind::Unique => Self::take(&mut self.rng, &self.grid, &mut self.singles, 1),
            Kind::Sweep => Self::take(&mut self.rng, &self.grid, &mut self.sweeps, SWEEP_POINTS),
        };
        let body = job_body(&pts, &nonce);
        self.history.push((body.clone(), pts.clone()));
        (body, pts, kind)
    }
}

/// Drive the server closed loop from `clients` connections, each with
/// its own [`JobStream`], until `seconds` have passed. Returns every job
/// and the measured wall time.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    addr: SocketAddr,
    grid: &[Point],
    warm: &[(String, Vec<Point>)],
    oracle: &Oracle,
    clients: usize,
    seconds: f64,
    seed: u64,
    trace: bool,
    origin: Instant,
) -> (Vec<JobRec>, f64, Spans) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(Vec<JobRec>, Spans)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut stream = JobStream::new(seed, c, grid, warm);
                    let mut spans = Spans::new(trace, origin);
                    let mut client = Client::new(addr);
                    let mut recs = Vec::new();
                    while Instant::now() < deadline {
                        let (body, pts, kind) = stream.next();
                        spans.set_group(((c as u64) << 32) | recs.len() as u64);
                        recs.push(submit_and_wait(
                            &mut client,
                            &body,
                            &pts,
                            kind,
                            Some(oracle),
                            &mut spans,
                        ));
                    }
                    (recs, spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread does not panic"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut all = Vec::new();
    let mut spans = Spans::new(trace, origin);
    for (recs, sp) in per_client {
        all.extend(recs);
        spans.absorb(sp);
    }
    (all, wall, spans)
}

/// The server's `/metrics` counters.
pub fn metrics(addr: SocketAddr) -> BTreeMap<String, u64> {
    let mut client = Client::new(addr);
    let body = client
        .get("/metrics")
        .map(|r| String::from_utf8_lossy(&r.body).into_owned())
        .unwrap_or_default();
    body.lines()
        .filter_map(|l| {
            let mut it = l.split_whitespace();
            let k = it.next()?;
            let v = it.next()?.parse().ok()?;
            Some((k.to_string(), v))
        })
        .collect()
}
