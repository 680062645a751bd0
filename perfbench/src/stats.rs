//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `samples` by linear interpolation
/// between closest ranks; `NaN` for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Seconds elapsed since `t` as a float.
pub fn secs(t: std::time::Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const PROCESS_CPU_CLOCK: i32 = 2;

/// CPU seconds this process has run so far, user and system, summed over
/// all its threads (those that have exited too). Time spent waiting for a
/// CPU, or stolen by the hypervisor, is not counted.
pub fn cpu_now() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on the 64-bit Linux targets this benchmark builds for).
    let rc = unsafe { clock_gettime(PROCESS_CPU_CLOCK, &mut ts) };
    assert_eq!(rc, 0, "the process CPU clock is readable");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Host time one operation took: wall seconds (what the run's deadline
/// counts) and process CPU seconds (what the metrics report).
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Wall-clock seconds.
    pub wall: f64,
    /// Process CPU seconds, all threads.
    pub cpu: f64,
}

impl Timing {
    /// Times `f` on both clocks.
    pub fn of<R>(f: impl FnOnce() -> R) -> (Timing, R) {
        let (t, c) = (std::time::Instant::now(), cpu_now());
        let out = f();
        let timing = Timing {
            wall: secs(t),
            cpu: cpu_now() - c,
        };
        (timing, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&s), 2.5);
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn the_cpu_clock_counts_work_not_sleep() {
        let (slept, _) = Timing::of(|| std::thread::sleep(std::time::Duration::from_millis(50)));
        assert!(slept.wall >= 0.05 && slept.cpu < 0.04, "{slept:?}");
        let (spun, _) = Timing::of(|| {
            let t = std::time::Instant::now();
            while secs(t) < 0.05 {
                std::hint::black_box(0);
            }
        });
        assert!(spun.cpu > 0.0 && spun.cpu <= spun.wall + 0.01, "{spun:?}");
    }
}
