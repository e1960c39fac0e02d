//! Machine-speed calibration for the timed windows.
//!
//! Small shared VMs (measured on a 2-vCPU Intel Xeon) switch speed in
//! spells of a fraction of a second to several seconds: the same `mayac` run takes
//! either ~17 ms or ~28 ms, with its CPU time moving along, so the share of
//! slow spells in a window, not the program, decided most of the spread
//! between runs. The benchmark therefore runs a small fixed probe on its own
//! threads between requests (at most every [`PROBE_EVERY`]) and scales every
//! timed figure to the speed at which the probe takes [`NOMINAL_PROBE_NS`]
//! of thread CPU time. The probe is the benchmark's own code, so a change to
//! the program under test moves the scaled figures as it moves the raw ones.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::proc::thread_cpu_ns;

/// The probe's thread CPU time when the machine the benchmark was built on
/// runs at full speed. Any constant would do; this one makes calibrated
/// milliseconds read like real ones there.
const NOMINAL_PROBE_NS: f64 = 190_000.0;

/// The shortest time between two probes.
const PROBE_EVERY: Duration = Duration::from_millis(10);

/// The probe: ordered-map inserts and lookups on pseudo-random keys, so it
/// allocates, chases pointers and branches like a compiler does. Returns its
/// thread CPU time, which a wait for a CPU does not inflate.
fn probe_ns() -> u64 {
    let t0 = thread_cpu_ns();
    let mut map = BTreeMap::new();
    let (mut x, mut acc) = (0x2545_F491u32, 0u64);
    for i in 0..3_000u32 {
        x ^= x << 13;
        x ^= x >> 17;
        x ^= x << 5;
        let k = x % 4096;
        if i % 4 == 0 {
            map.insert(k, i);
        } else if let Some(v) = map.get(&k) {
            acc += u64::from(*v);
        }
    }
    black_box((acc, map.len()));
    thread_cpu_ns() - t0
}

/// Probes taken during one timed window. Shared by every client thread of
/// a run.
#[derive(Default)]
pub struct SpeedLog {
    probes: Mutex<Vec<(Instant, u64)>>,
}

impl SpeedLog {
    /// Probes now unless another probe ran within [`PROBE_EVERY`]. Call it
    /// between requests, never inside a timed one.
    pub fn maybe_probe(&self) {
        let due = {
            let p = self.probes.lock().expect("speed log poisoned");
            p.last().is_none_or(|(t, _)| t.elapsed() >= PROBE_EVERY)
        };
        if due {
            self.probe();
        }
    }

    /// Probes now, unconditionally: brackets a timed window.
    pub fn probe(&self) {
        let ns = probe_ns();
        self.probes
            .lock()
            .expect("speed log poisoned")
            .push((Instant::now(), ns));
    }

    pub fn finish(self) -> Speed {
        let mut probes = self.probes.into_inner().expect("speed log poisoned");
        probes.sort_by_key(|&(t, _)| t);
        Speed { probes }
    }
}

/// Runs `f` and returns its wall time in calibrated seconds, with probes
/// just outside it and wherever `f` asks for one. Set-up work goes through
/// this, so `setup_s` reads the same whatever speed the machine ran at.
pub fn calibrated_secs<T>(sensitivity: f64, f: impl FnOnce(&SpeedLog) -> T) -> (f64, T) {
    let log = SpeedLog::default();
    log.probe();
    let t0 = Instant::now();
    let out = f(&log);
    let t1 = Instant::now();
    log.probe();
    let s = log.finish().mean_slowdown(t0, t1);
    (
        t1.duration_since(t0).as_secs_f64() / s.powf(sensitivity),
        out,
    )
}

/// The probes of a finished window, in time order.
pub struct Speed {
    probes: Vec<(Instant, u64)>,
}

impl Speed {
    /// How much slower than nominal the machine ran over `[t0, t1]`: the
    /// mean of the last probe before `t0`, the first after `t1`, and every
    /// probe between, over [`NOMINAL_PROBE_NS`].
    pub fn slowdown(&self, t0: Instant, t1: Instant) -> f64 {
        let p = &self.probes;
        if p.is_empty() {
            return 1.0;
        }
        let first = p.partition_point(|&(t, _)| t <= t0).saturating_sub(1);
        let last = p
            .partition_point(|&(t, _)| t < t1)
            .min(p.len() - 1)
            .max(first);
        let span = &p[first..=last];
        span.iter().map(|&(_, ns)| ns as f64).sum::<f64>() / span.len() as f64 / NOMINAL_PROBE_NS
    }

    /// The time-weighted mean slowdown over `[t0, t1]`.
    pub fn mean_slowdown(&self, t0: Instant, t1: Instant) -> f64 {
        let inside: Vec<(Instant, u64)> = self
            .probes
            .iter()
            .copied()
            .filter(|&(t, _)| t >= t0 && t <= t1)
            .collect();
        let (mut weighted, mut total) = (0.0, 0.0);
        for w in inside.windows(2) {
            let dt = w[1].0.duration_since(w[0].0).as_secs_f64();
            weighted += dt * (w[0].1 + w[1].1) as f64 / 2.0;
            total += dt;
        }
        if total == 0.0 {
            return self.slowdown(t0, t1);
        }
        weighted / total / NOMINAL_PROBE_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_averages_the_bracketing_probes() {
        let t = Instant::now();
        let at = |ms: u64| t + Duration::from_millis(ms);
        let nominal = NOMINAL_PROBE_NS as u64;
        let speed = Speed {
            probes: vec![
                (at(0), nominal),
                (at(10), 2 * nominal),
                (at(20), 3 * nominal),
            ],
        };
        // A request inside one gap sees the probes on either side of it.
        assert_eq!(speed.slowdown(at(12), at(18)), 2.5);
        // One that spans a probe sees it too.
        assert_eq!(speed.slowdown(at(5), at(15)), 2.0);
        // The window mean weights each gap by its length.
        assert!((speed.mean_slowdown(at(0), at(20)) - 2.0).abs() < 1e-9);
    }
}
