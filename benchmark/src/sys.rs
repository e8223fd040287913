//! Process accounting read from `/proc` (Linux only, like the epoll
//! backend the wire workloads run on).

use std::fs;
use std::os::unix::fs::FileExt;

/// Linux reports `utime`/`stime` in `USER_HZ` units, which is 100 on
/// every supported architecture.
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds out of the text of a `/proc/.../stat` file.
fn parse_cpu_s(stat: &str) -> f64 {
    // The command name (field 2) may contain spaces; fields are counted
    // from the closing parenthesis: state is field 3, utime 14, stime 15.
    let rest = stat.rsplit_once(')').expect("stat has a command field").1;
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).expect("utime");
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).expect("stime");
    (utime + stime) / TICKS_PER_S
}

/// CPU seconds of the calling thread.
pub fn thread_cpu_s() -> f64 {
    parse_cpu_s(&fs::read_to_string("/proc/thread-self/stat").expect("procfs stat is readable"))
}

/// The process's CPU time, threads that already exited included (the
/// fleet engine spawns its workers per tick). The file stays open and is
/// read into a stack buffer, so a reading inside a measured round
/// allocates nothing.
pub struct CpuClock(fs::File);

impl CpuClock {
    pub fn new() -> CpuClock {
        CpuClock(fs::File::open("/proc/self/stat").expect("procfs stat is readable"))
    }

    /// User + system CPU seconds so far.
    pub fn process_cpu_s(&self) -> f64 {
        let mut buf = [0u8; 1024];
        let n = self
            .0
            .read_at(&mut buf, 0)
            .expect("procfs stat is readable");
        parse_cpu_s(std::str::from_utf8(&buf[..n]).expect("stat is ASCII"))
    }
}

impl Default for CpuClock {
    fn default() -> Self {
        CpuClock::new()
    }
}

fn status_kb(key: &str) -> f64 {
    let status = fs::read_to_string("/proc/self/status").expect("procfs status is readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .expect("status field present")
}

/// Peak resident set size so far, in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// Current resident set size, in kB.
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}
