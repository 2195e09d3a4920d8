//! `/proc` readers: process CPU time, peak RSS, per-thread scheduler
//! statistics, the ephemeral port range, and the host description.
//!
//! The workspace forbids `unsafe`, so `getrusage` is out of reach; the
//! text files carry the same numbers. Parsers are pure functions over the
//! file contents so the tests can pin them without a `/proc`.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// `USER_HZ`: clock ticks per second in `/proc/*/stat`. 100 on every
/// mainstream Linux; `sysconf` would need `unsafe`.
const TICKS_PER_S: f64 = 100.0;

/// User + system ticks from the contents of a `stat` file (process or
/// task). `comm` (field 2) may contain spaces and parentheses, so fields
/// are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = stat.rsplit_once(')')?.1;
    let mut fields = rest.split_ascii_whitespace();
    let utime: u64 = fields.nth(11)?.parse().ok()?; // field 14
    let stime: u64 = fields.next()?.parse().ok()?; // field 15
    Some(utime + stime)
}

/// CPU seconds (user + system, every thread, exited ones included) this
/// process has used so far. 10 ms resolution.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_ticks(&s))
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_S)
}

/// `VmHWM` in KiB from the contents of a `status` file.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?
        .split_ascii_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Resets the kernel's resident-set high-water mark of this process to
/// its current resident set, so the next [`peak_rss_mib`] reads the peak
/// since this call. Where `/proc/self/clear_refs` cannot be written the
/// mark stays, and the peak is the process's so far.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process since the last reset, MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_kib(&s))
        .map_or(0.0, |kib| kib as f64 / 1024.0)
}

/// `(on-CPU ns, run-queue wait ns)` from the contents of a `schedstat`
/// file.
pub fn parse_schedstat(text: &str) -> Option<(u64, u64)> {
    let mut fields = text.split_ascii_whitespace();
    Some((fields.next()?.parse().ok()?, fields.next()?.parse().ok()?))
}

/// `(low, high)` from the contents of `ip_local_port_range`.
pub fn parse_port_range(text: &str) -> Option<(u32, u32)> {
    let mut fields = text.split_ascii_whitespace();
    let low: u32 = fields.next()?.parse().ok()?;
    let high: u32 = fields.next()?.parse().ok()?;
    (low <= high).then_some((low, high))
}

/// The host's ephemeral port range.
pub fn port_range() -> Option<(u32, u32)> {
    parse_port_range(&std::fs::read_to_string("/proc/sys/net/ipv4/ip_local_port_range").ok()?)
}

/// Refuses a connection count the ephemeral range cannot carry: every
/// loopback connection to one listener needs its own source port, and a
/// port stays in TIME_WAIT for a minute after its connection closes. Each
/// pass binds a fresh listener, hence a fresh 4-tuple space, so the cap
/// is per pass.
pub fn check_port_range(range: Option<(u32, u32)>, conns: usize) -> Result<(), String> {
    let Some((low, high)) = range else {
        return Ok(()); // not Linux-like enough to tell; connects will say
    };
    let ports = (high - low + 1) as usize;
    if (ports as f64) < 1.2 * conns as f64 {
        return Err(format!(
            "ephemeral port range {low}-{high} has {ports} ports, fewer than 1.2 x {conns} \
             connections per listener"
        ));
    }
    Ok(())
}

/// Kernel release, or `unknown`.
pub fn kernel_release() -> String {
    std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string())
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// On-CPU and run-queue time of the threads whose names share a prefix.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ThreadTime {
    /// Seconds on a CPU.
    pub cpu_s: f64,
    /// Seconds runnable but waiting for a CPU; 0 when the kernel has no
    /// `schedstat`.
    pub wait_s: f64,
}

/// Last sample of every thread seen while a [`ThreadSampler`] ran.
#[derive(Debug, Default)]
pub struct ThreadTimes(BTreeMap<u32, (String, ThreadTime)>);

impl ThreadTimes {
    /// Total over the threads whose name starts with `prefix`.
    pub fn by_prefix(&self, prefix: &str) -> ThreadTime {
        let mut total = ThreadTime::default();
        for (name, t) in self.0.values() {
            if name.starts_with(prefix) {
                total.cpu_s += t.cpu_s;
                total.wait_s += t.wait_s;
            }
        }
        total
    }

    fn sample(&mut self) {
        let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        for task in tasks.flatten() {
            let dir = task.path();
            let Some(tid) = task
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<u32>().ok())
            else {
                continue;
            };
            // A thread may exit between the listing and the reads; its
            // previous sample then stands.
            let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
                continue;
            };
            let time = std::fs::read_to_string(dir.join("schedstat"))
                .ok()
                .and_then(|s| parse_schedstat(&s))
                .map(|(run, wait)| ThreadTime {
                    cpu_s: run as f64 / 1e9,
                    wait_s: wait as f64 / 1e9,
                })
                .or_else(|| {
                    let ticks = parse_stat_ticks(&std::fs::read_to_string(dir.join("stat")).ok()?)?;
                    Some(ThreadTime {
                        cpu_s: ticks as f64 / TICKS_PER_S,
                        wait_s: 0.0,
                    })
                });
            if let Some(time) = time {
                self.0.insert(tid, (comm.trim().to_string(), time));
            }
        }
    }
}

/// Polls `/proc/self/task/*/{comm,schedstat}` every 50 ms and keeps the
/// last value per thread id, so the time of threads that exit before the
/// run ends (every server and driver thread does) is not lost. Started
/// before the threads it attributes to, so their counters start at zero.
pub struct ThreadSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<ThreadTimes>,
}

impl ThreadSampler {
    /// Sampling period.
    const PERIOD: Duration = Duration::from_millis(50);

    /// Starts sampling.
    pub fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut times = ThreadTimes::default();
            while !flag.load(Ordering::Relaxed) {
                times.sample();
                std::thread::sleep(Self::PERIOD);
            }
            times.sample();
            times
        });
        Self { stop, handle }
    }

    /// Stops sampling and returns what was seen.
    pub fn finish(self) -> ThreadTimes {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_ticks_survive_a_hostile_comm() {
        let stat = "4242 (lsw (weird) name) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    321 45 0 0 20 0 3 0 12345 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_ticks(stat), Some(366));
        assert_eq!(parse_stat_ticks("4242 (x) S 1 2"), None);
        assert_eq!(parse_stat_ticks("no paren"), None);
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tlsw\nVmPeak:\t  999 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(123_456));
        assert_eq!(parse_vm_hwm_kib("Name:\tlsw\n"), None);
    }

    #[test]
    fn schedstat_gives_run_and_wait() {
        assert_eq!(parse_schedstat("1234567 890 42\n"), Some((1_234_567, 890)));
        assert_eq!(parse_schedstat("1234567\n"), None);
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn port_range_guard() {
        assert_eq!(parse_port_range("32768\t60999\n"), Some((32_768, 60_999)));
        assert_eq!(parse_port_range("9 1"), None);
        assert_eq!(parse_port_range("x"), None);
        let range = Some((32_768, 60_999)); // 28,232 ports
        assert!(check_port_range(range, 23_000).is_ok());
        assert!(check_port_range(range, 24_000).is_err());
        assert!(check_port_range(None, 1_000_000).is_ok());
    }

    #[test]
    fn thread_times_sum_by_prefix() {
        let mut times = ThreadTimes::default();
        let t = |cpu_s, wait_s| ThreadTime { cpu_s, wait_s };
        times.0.insert(1, ("lsw-reactor-0".into(), t(1.0, 0.5)));
        times.0.insert(2, ("lsw-reactor-1".into(), t(2.0, 0.25)));
        times.0.insert(3, ("lsw-accept".into(), t(4.0, 0.0)));
        assert_eq!(times.by_prefix("lsw-reactor-"), t(3.0, 0.75));
        assert_eq!(times.by_prefix("lsw-relay-"), ThreadTime::default());
    }

    #[test]
    fn sampler_sees_a_named_thread() {
        let sampler = ThreadSampler::start();
        let worker = std::thread::Builder::new()
            .name("lsw-probe-0".into())
            .spawn(|| {
                let t0 = std::time::Instant::now();
                let mut x = 0u64;
                while t0.elapsed() < Duration::from_millis(120) {
                    x = std::hint::black_box(x.wrapping_add(1));
                }
            })
            .expect("spawn");
        worker.join().expect("join");
        let times = sampler.finish();
        assert!(times.by_prefix("lsw-probe-").cpu_s > 0.0);
    }
}
