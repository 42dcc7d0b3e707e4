//! `loadtest`: drive the isrf-serve batch server under concurrent load
//! and verify every served result word-for-word against a direct
//! in-process run.
//!
//! ```text
//! loadtest load  [--jobs N] [--clients C] [--workers W] [--out PATH]
//! loadtest smoke --bin PATH/TO/isrf-serve
//! ```
//!
//! `load` starts an in-process server on an ephemeral port, fires `N`
//! jobs from `C` real TCP clients over a mixed app×config basket (unique
//! nonces defeat the result cache so every job simulates), checks each
//! payload against the oracle, then measures the memoized path (repeat
//! submissions of an identical spec) and writes jobs/sec + p50/p99 and
//! the cache speedup to `results/BENCH_serve.json`.
//!
//! `smoke` is the CI stage: it spawns the given `isrf-serve` binary as a
//! child process with a tiny queue, checks the one-shot-vs-served diff,
//! elicits a 429, exercises cancel and the memoized path, and shuts the
//! child down via `POST /shutdown`.

use std::net::SocketAddr;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use isrf_apps::{prepare_app, Profile};
use isrf_core::config::ConfigName;
use isrf_serve::{Client, Json, Server, ServerConfig};

/// The mixed basket: every registered app on every preset configuration,
/// Small profile.
fn basket() -> Vec<(&'static str, ConfigName)> {
    let mut b = Vec::new();
    for app in isrf_apps::APPS {
        for cfg in ConfigName::ALL {
            b.push((app, cfg));
        }
    }
    b
}

/// Oracle outputs for one basket entry, as `u64` words per output region.
fn oracle(app: &str, cfg: ConfigName) -> (u64, Vec<Vec<u64>>) {
    let mut pr = prepare_app(app, cfg, Profile::Small);
    let stats = pr.machine.run(&pr.program);
    let outs = pr
        .outputs
        .iter()
        .map(|&(base, words)| {
            pr.machine
                .mem()
                .memory()
                .read_block(base, words as usize)
                .into_iter()
                .map(u64::from)
                .collect()
        })
        .collect();
    (stats.cycles, outs)
}

fn result_words(result: &Json) -> Option<(u64, Vec<Vec<u64>>)> {
    let point = result.get("points")?.as_arr()?.first()?;
    let cycles = point.get("cycles")?.as_u64()?;
    let outs = point
        .get("outputs")?
        .as_arr()?
        .iter()
        .map(|o| {
            o.get("words")
                .and_then(Json::as_arr)
                .map(|ws| ws.iter().filter_map(Json::as_u64).collect())
        })
        .collect::<Option<Vec<Vec<u64>>>>()?;
    Some((cycles, outs))
}

fn submit_and_wait(
    client: &mut Client,
    body: &str,
    timeout: Duration,
) -> Result<(Json, Duration), String> {
    let t0 = Instant::now();
    let resp = client.post("/jobs", body).map_err(|e| format!("{e}"))?;
    if resp.status != 200 && resp.status != 202 {
        return Err(format!(
            "submit rejected with {}: {}",
            resp.status,
            String::from_utf8_lossy(&resp.body)
        ));
    }
    let id = resp
        .json()?
        .get("id")
        .and_then(Json::as_u64)
        .ok_or("no id in submit response")?;
    let st = client.wait_job(id, timeout).map_err(|e| format!("{e}"))?;
    if st.get("status").and_then(Json::as_str) != Some("done") {
        return Err(format!("job {id} ended as {}", st.render()));
    }
    let resp = client
        .get(&format!("/jobs/{id}/result"))
        .map_err(|e| format!("{e}"))?;
    if resp.status != 200 {
        return Err(format!("result fetch failed with {}", resp.status));
    }
    Ok((resp.json()?, t0.elapsed()))
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() - 1) as f64 * p).round() as usize;
    sorted_ms[idx]
}

#[allow(clippy::too_many_lines)]
fn load_mode(jobs: usize, clients: usize, workers: usize, out: &str) -> ExitCode {
    let basket = basket();
    eprintln!(
        "loadtest: {jobs} jobs, {clients} clients, {workers} workers, basket of {} points",
        basket.len()
    );

    // Oracle pass (parallel, deterministic): one direct run per basket
    // entry — the reference every served result must match word-for-word.
    let t0 = Instant::now();
    let expected = isrf_check::run_parallel(&basket, |&(app, cfg)| oracle(app, cfg));
    eprintln!(
        "loadtest: oracle pass done in {:.2}s",
        t0.elapsed().as_secs_f64()
    );

    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_cap: jobs + clients, // measure throughput, not admission
        ..Default::default()
    })
    .expect("bind ephemeral port");
    let addr = server.addr();

    // Warm the compile memos so the measured phase reflects steady state
    // (the paper server is long-running; cold compiles are a one-time cost).
    {
        let mut c = Client::new(addr);
        for (i, (app, cfg)) in basket.iter().enumerate() {
            let body = format!(r#"{{"app":"{app}","config":"{cfg}","nonce":"warmup-{i}"}}"#);
            submit_and_wait(&mut c, &body, Duration::from_secs(120)).expect("warmup job");
        }
    }

    // Measured phase: C client threads race through N cold jobs.
    let cursor = Arc::new(AtomicUsize::new(0));
    let divergences = Arc::new(AtomicUsize::new(0));
    let wall0 = Instant::now();
    let mut handles = Vec::new();
    for t in 0..clients {
        let cursor = Arc::clone(&cursor);
        let divergences = Arc::clone(&divergences);
        let basket = basket.clone();
        let expected = expected.clone();
        handles.push(std::thread::spawn(move || {
            let mut client = Client::new(addr);
            let mut latencies_ms: Vec<f64> = Vec::new();
            loop {
                let i = cursor.fetch_add(1, Ordering::SeqCst);
                if i >= jobs {
                    return latencies_ms;
                }
                let (app, cfg) = basket[i % basket.len()];
                let body = format!(r#"{{"app":"{app}","config":"{cfg}","nonce":"load-{t}-{i}"}}"#);
                match submit_and_wait(&mut client, &body, Duration::from_secs(300)) {
                    Ok((result, latency)) => {
                        latencies_ms.push(latency.as_secs_f64() * 1e3);
                        let got = result_words(&result);
                        if got.as_ref() != Some(&expected[i % basket.len()]) {
                            eprintln!("loadtest: DIVERGENCE on {app}/{cfg} (job {i})");
                            divergences.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                    Err(e) => {
                        eprintln!("loadtest: job {i} failed: {e}");
                        divergences.fetch_add(1, Ordering::SeqCst);
                    }
                }
            }
        }));
    }
    let mut latencies_ms: Vec<f64> = Vec::new();
    for h in handles {
        latencies_ms.extend(h.join().expect("client thread"));
    }
    let wall_s = wall0.elapsed().as_secs_f64();
    let diverged = divergences.load(Ordering::SeqCst);
    latencies_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let jobs_per_sec = jobs as f64 / wall_s;
    let p50 = percentile(&latencies_ms, 0.50);
    let p99 = percentile(&latencies_ms, 0.99);

    // Memoized path: one cold run of a fixed spec, then repeats of the
    // identical spec served from the result cache.
    let mut c = Client::new(addr);
    let memo_body = r#"{"app":"sort","config":"ISRF4","nonce":"memo-bench"}"#;
    let (_, cold) =
        submit_and_wait(&mut c, memo_body, Duration::from_secs(120)).expect("cold memo job");
    let mut warm_ms: Vec<f64> = Vec::new();
    for _ in 0..50 {
        let (result, warm) =
            submit_and_wait(&mut c, memo_body, Duration::from_secs(30)).expect("warm memo job");
        assert_eq!(
            result.get("cached").and_then(Json::as_bool),
            Some(true),
            "repeat submission must be served from cache"
        );
        warm_ms.push(warm.as_secs_f64() * 1e3);
    }
    warm_ms.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let cold_ms = cold.as_secs_f64() * 1e3;
    let warm_p50 = percentile(&warm_ms, 0.50);
    let speedup = cold_ms / warm_p50.max(1e-6);

    server.stop();

    println!("loadtest: {jobs} jobs in {wall_s:.2}s = {jobs_per_sec:.1} jobs/sec");
    println!("loadtest: latency p50 {p50:.1} ms, p99 {p99:.1} ms");
    println!("loadtest: memoized repeat {warm_p50:.2} ms vs cold {cold_ms:.1} ms = {speedup:.0}x");
    println!("loadtest: {diverged} divergences");

    let json = Json::Obj(vec![
        ("jobs".into(), Json::u64(jobs as u64)),
        ("clients".into(), Json::u64(clients as u64)),
        ("workers".into(), Json::u64(workers as u64)),
        ("wall_s".into(), Json::Num(wall_s)),
        ("jobs_per_sec".into(), Json::Num(jobs_per_sec)),
        ("p50_ms".into(), Json::Num(p50)),
        ("p99_ms".into(), Json::Num(p99)),
        ("divergences".into(), Json::u64(diverged as u64)),
        ("memo_cold_ms".into(), Json::Num(cold_ms)),
        ("memo_warm_p50_ms".into(), Json::Num(warm_p50)),
        ("memo_speedup".into(), Json::Num(speedup)),
    ])
    .render_pretty();
    if let Some(dir) = std::path::Path::new(out).parent() {
        if !dir.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(dir);
        }
    }
    std::fs::write(out, json).expect("write report");
    println!("loadtest: wrote {out}");

    if diverged > 0 {
        eprintln!("loadtest: FAIL — served results diverged from direct runs");
        return ExitCode::FAILURE;
    }
    if speedup < 10.0 {
        eprintln!("loadtest: FAIL — memoized path only {speedup:.1}x faster than cold");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Kills and reaps the spawned server on every exit path, so a failed
/// smoke run never leaves a zombie behind.
struct ChildGuard(std::process::Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

fn smoke_mode(bin: &str) -> ExitCode {
    let tmp = std::env::temp_dir().join(format!("isrf-serve-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).expect("create smoke dir");
    let port_file = tmp.join("port");

    // Tiny queue so backpressure is easy to elicit.
    let mut child = std::process::Command::new(bin)
        .args([
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--queue-cap",
            "2",
            "--chunk",
            "5000",
            "--port-file",
        ])
        .arg(&port_file)
        .spawn()
        .map(ChildGuard)
        .expect("spawn isrf-serve");

    // Wait for the listener.
    let deadline = Instant::now() + Duration::from_secs(30);
    let addr: SocketAddr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            if let Ok(a) = text.trim().parse() {
                break a;
            }
        }
        if Instant::now() > deadline {
            eprintln!("smoke: server never wrote its port file");
            return ExitCode::FAILURE;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut client = Client::new(addr);

    // 1. Served results match the one-shot path word-for-word.
    for (app, cfg) in [("sort", ConfigName::Isrf4), ("filter", ConfigName::Base)] {
        let body = format!(r#"{{"app":"{app}","config":"{cfg}"}}"#);
        let (result, _) = match submit_and_wait(&mut client, &body, Duration::from_secs(120)) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("smoke: {app}/{cfg} failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        if result_words(&result).as_ref() != Some(&oracle(app, cfg)) {
            eprintln!("smoke: {app}/{cfg} diverged from the one-shot run");
            return ExitCode::FAILURE;
        }
        println!("smoke: {app}/{cfg} matches the one-shot run");
    }

    // 2. Identical resubmission is served from the cache.
    let resp = client
        .post("/jobs", r#"{"app":"sort","config":"ISRF4"}"#)
        .expect("resubmit");
    let cached = resp
        .json()
        .ok()
        .and_then(|v| v.get("cached").and_then(Json::as_bool));
    if resp.status != 200 || cached != Some(true) {
        eprintln!("smoke: resubmission was not served from cache");
        return ExitCode::FAILURE;
    }
    println!("smoke: memoized resubmission served from cache");

    // 3. Flood Paper-profile jobs to trip the queue bound.
    let mut flooded = Vec::new();
    let mut saw_429 = false;
    for i in 0..8 {
        let body = format!(r#"{{"app":"sort","profile":"paper","nonce":"flood-{i}"}}"#);
        let resp = client.post("/jobs", &body).expect("flood submit");
        match resp.status {
            202 => flooded.push(
                resp.json()
                    .unwrap()
                    .get("id")
                    .and_then(Json::as_u64)
                    .unwrap(),
            ),
            429 => {
                if resp.header("retry-after").is_none() {
                    eprintln!("smoke: 429 without Retry-After");
                    return ExitCode::FAILURE;
                }
                saw_429 = true;
            }
            other => {
                eprintln!("smoke: flood submit got {other}");
                return ExitCode::FAILURE;
            }
        }
    }
    if !saw_429 {
        eprintln!("smoke: queue bound never produced a 429");
        return ExitCode::FAILURE;
    }
    println!("smoke: queue bound produced 429 + Retry-After");

    // 4. Cancel the flood (exercises DELETE mid-run).
    for id in &flooded {
        let resp = client.delete(&format!("/jobs/{id}")).expect("cancel");
        if resp.status != 200 {
            eprintln!("smoke: cancel of job {id} got {}", resp.status);
            return ExitCode::FAILURE;
        }
    }
    println!("smoke: cancelled {} flooded jobs", flooded.len());

    // 5. Clean shutdown via the API; the child must exit 0.
    let resp = client.post("/shutdown", "").expect("shutdown");
    if resp.status != 200 {
        eprintln!("smoke: shutdown got {}", resp.status);
        return ExitCode::FAILURE;
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match child.0.try_wait().expect("wait on child") {
            Some(status) if status.success() => break,
            Some(status) => {
                eprintln!("smoke: server exited with {status}");
                return ExitCode::FAILURE;
            }
            None if Instant::now() > deadline => {
                eprintln!("smoke: server did not exit after shutdown");
                return ExitCode::FAILURE;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
    println!("smoke: server drained and exited cleanly");
    ExitCode::SUCCESS
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("loadtest: {msg}");
    eprintln!(
        "usage: loadtest load [--jobs N] [--clients C] [--workers W] [--out PATH]\n\
         \u{20}      loadtest smoke --bin PATH"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("load") | None => {
            let mut jobs = 400;
            let mut clients = 8;
            let mut workers = std::thread::available_parallelism().map_or(4, |n| n.get());
            let mut out = String::from("results/BENCH_serve.json");
            let mut it = args.iter().skip(1);
            while let Some(a) = it.next() {
                match (a.as_str(), it.next()) {
                    ("--jobs", Some(v)) => match v.parse() {
                        Ok(n) => jobs = n,
                        Err(_) => return usage("--jobs needs a number"),
                    },
                    ("--clients", Some(v)) => match v.parse() {
                        Ok(n) => clients = n,
                        Err(_) => return usage("--clients needs a number"),
                    },
                    ("--workers", Some(v)) => match v.parse() {
                        Ok(n) => workers = n,
                        Err(_) => return usage("--workers needs a number"),
                    },
                    ("--out", Some(v)) => out = v.clone(),
                    (other, _) => return usage(&format!("unknown argument {other}")),
                }
            }
            load_mode(jobs, clients, workers, &out)
        }
        Some("smoke") => {
            let mut bin = None;
            let mut it = args.iter().skip(1);
            while let Some(a) = it.next() {
                match (a.as_str(), it.next()) {
                    ("--bin", Some(v)) => bin = Some(v.clone()),
                    (other, _) => return usage(&format!("unknown argument {other}")),
                }
            }
            match bin {
                Some(b) => smoke_mode(&b),
                None => usage("smoke needs --bin PATH"),
            }
        }
        Some(other) => usage(&format!("unknown mode {other}")),
    }
}
