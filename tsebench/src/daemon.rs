//! A real `sweepd serve` child process and the clients that drive it.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tse_sim::shard::{MergedGrid, ShardPlan};
use tse_sweepd::net::{self, Endpoint};
use tse_sweepd::proto::{Request, Response};
use tse_sweepd::service::JobStatus;

/// How long a starting daemon may take to answer its first `ping`.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// A `sweepd serve` child on a Unix socket. Dropping it kills the child
/// if [`Daemon::stop`] did not already reap it.
pub struct Daemon {
    child: Option<Child>,
    endpoint: Endpoint,
}

fn io_err(msg: impl Into<String>) -> std::io::Error {
    std::io::Error::other(msg.into())
}

impl Daemon {
    /// Spawns `bin serve` over `corpus`, with its cache in `cache`,
    /// listening on `socket`, and waits until it answers `ping`. The
    /// daemon's output goes to `log`.
    ///
    /// # Errors
    ///
    /// Spawn failures, or a daemon that exits or stays silent past the
    /// start timeout.
    pub fn start(
        bin: &Path,
        corpus: &Path,
        cache: &Path,
        socket: &Path,
        workers: usize,
        log: &Path,
    ) -> std::io::Result<Daemon> {
        let out = std::fs::File::create(log)?;
        let err = out.try_clone()?;
        let child = Command::new(bin)
            .arg("serve")
            .arg("--corpus")
            .arg(corpus)
            .arg("--cache")
            .arg(cache)
            .arg("--listen")
            .arg(socket)
            .arg("--workers")
            .arg(workers.to_string())
            .stdin(Stdio::null())
            .stdout(out)
            .stderr(err)
            .spawn()?;
        let mut daemon = Daemon {
            child: Some(child),
            endpoint: Endpoint::Unix(PathBuf::from(socket)),
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            if daemon.ping().is_ok() {
                return Ok(daemon);
            }
            if let Some(status) = daemon
                .child
                .as_mut()
                .and_then(|c| c.try_wait().ok().flatten())
            {
                return Err(io_err(format!(
                    "sweepd exited during start ({status}); see {}",
                    log.display()
                )));
            }
            if Instant::now() > deadline {
                return Err(io_err("sweepd did not answer ping in time"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// The daemon's endpoint.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// The child's process id.
    pub fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// One request; a daemon-reported failure becomes an error.
    ///
    /// # Errors
    ///
    /// Transport failures or `ok: false` replies.
    pub fn request(&self, request: &Request) -> std::io::Result<Response> {
        checked(net::request(&self.endpoint, request)?)
    }

    /// Round-trip time of one `ping`, in seconds.
    ///
    /// # Errors
    ///
    /// As [`Daemon::request`].
    pub fn ping(&self) -> std::io::Result<f64> {
        ping(&self.endpoint)
    }

    /// Submits `plan` and waits for the merged grid, as
    /// `sweepctl local --via` does.
    ///
    /// # Errors
    ///
    /// As [`Daemon::request`], or a reply without status or grid.
    pub fn submit(&self, plan: &ShardPlan) -> std::io::Result<(JobStatus, MergedGrid)> {
        let mut request = Request::new("submit");
        request.plan = Some(plan.clone());
        request.wait = true;
        let response = self.request(&request)?;
        match (response.status, response.merged) {
            (Some(status), Some(merged)) => Ok((status, merged)),
            _ => Err(io_err("submit reply lacks status or grid")),
        }
    }

    /// Evicts every cached result (`cache gc --max-bytes 0`), so the next
    /// submit of the same plan runs cold again.
    ///
    /// # Errors
    ///
    /// As [`Daemon::request`].
    pub fn clear_cache(&self) -> std::io::Result<()> {
        let mut request = Request::new("cache-gc");
        request.max_bytes = Some(0);
        self.request(&request)?;
        let stats = self.request(&Request::new("cache-stats"))?;
        match stats.cache_entries {
            Some(0) => Ok(()),
            other => Err(io_err(format!(
                "cache not empty after gc: {other:?} entries"
            ))),
        }
    }

    /// Asks the daemon to shut down and reaps it; kills it if it does not
    /// exit within a few seconds.
    ///
    /// # Errors
    ///
    /// A daemon that had to be killed, or wait failures.
    pub fn stop(mut self) -> std::io::Result<()> {
        let _ = self.request(&Request::new("shutdown"));
        let mut child = self.child.take().expect("child present until stop");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if child.try_wait()?.is_some() {
                return Ok(());
            }
            if Instant::now() > deadline {
                let _ = child.kill();
                child.wait()?;
                return Err(io_err("sweepd ignored shutdown and was killed"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

fn checked(response: Response) -> std::io::Result<Response> {
    if response.ok {
        Ok(response)
    } else {
        Err(io_err(
            response
                .error
                .unwrap_or_else(|| "daemon reported failure".to_string()),
        ))
    }
}

/// Round-trip time of one `ping` to `endpoint`, in seconds.
///
/// # Errors
///
/// Transport failures or `ok: false` replies.
pub fn ping(endpoint: &Endpoint) -> std::io::Result<f64> {
    let t0 = Instant::now();
    checked(net::request(endpoint, &Request::new("ping"))?)?;
    Ok(t0.elapsed().as_secs_f64())
}

/// A closed-loop client: one connection at a time sends `ping`, waits
/// for the reply, then thinks for a fixed time before the next.
pub struct Pinger {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<(Vec<f64>, usize)>,
}

impl Pinger {
    /// Starts pinging `endpoint` with `think` between replies.
    pub fn start(endpoint: Endpoint, think: Duration) -> Pinger {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            let mut errors = 0;
            while !flag.load(Ordering::Relaxed) {
                match ping(&endpoint) {
                    Ok(secs) => samples.push(secs * 1e3),
                    Err(_) => errors += 1,
                }
                std::thread::sleep(think);
            }
            (samples, errors)
        });
        Pinger { stop, handle }
    }

    /// Stops the loop and returns the round trips (ms) and the count of
    /// failed pings.
    pub fn finish(self) -> (Vec<f64>, usize) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("pinger thread")
    }
}
