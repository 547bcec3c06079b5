//! Virtual time: instants and durations in whole microseconds.
//!
//! A newtype pair rather than `std::time` types so that (a) arithmetic is
//! explicit and saturating where it must be, and (b) a `SimTime` can never be
//! confused with a wall-clock instant anywhere in the federation.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant of virtual time, measured in microseconds since the start of
/// the simulation epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" sentinel.
    pub const FAR_FUTURE: SimTime = SimTime(u64::MAX);

    /// Construct from raw microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Construct from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000)
    }

    /// Raw microseconds since epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since epoch, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier` is
    /// in the future.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration (None on overflow).
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest microsecond.
    /// Negative inputs clamp to zero (durations are non-negative).
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 || !s.is_finite() {
            return SimDuration(0);
        }
        SimDuration((s * 1e6).round() as u64)
    }

    /// Construct from whole minutes.
    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60_000_000)
    }

    /// Construct from whole hours.
    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600_000_000)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Scale by a non-negative factor, rounding to the nearest microsecond.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        debug_assert!(factor >= 0.0, "durations cannot be scaled negative");
        SimDuration((self.0 as f64 * factor).round().max(0.0) as u64)
    }

    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }

    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        *self = *self + d;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    /// Panics in debug builds if `rhs` is later than `self`.
    fn sub(self, rhs: SimTime) -> SimDuration {
        debug_assert!(rhs <= self, "SimTime subtraction went negative");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        debug_assert!(rhs <= self, "SimDuration subtraction went negative");
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(rhs))
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl SimTime {
    /// Write `t+{seconds}.{micros:06}s` to `out`: integer division and one
    /// `write_str`, no float formatting. Prints the digits `{:.6}` of
    /// `as_secs_f64()` prints for every instant below 4.5e15 µs (142 virtual
    /// years): the quotient is off by at most `v·2⁻⁵³` there, under the
    /// half-microsecond that would round to a different sixth decimal.
    pub(crate) fn write_to<W: fmt::Write>(self, out: &mut W) -> fmt::Result {
        let mut buf = [0u8; 24];
        out.write_str(std::str::from_utf8(self.digits(&mut buf)).map_err(|_| fmt::Error)?)
    }

    /// The bytes [`Self::write_to`] writes, filled from the right of `buf`:
    /// "t+", the ≤ 20 digits of a u64, "." and "s". The trace's fold hashes
    /// them from here.
    pub(crate) fn digits(self, buf: &mut [u8; 24]) -> &[u8] {
        let mut i = buf.len();
        let mut put = |b: u8| {
            i -= 1;
            buf[i] = b;
        };
        put(b's');
        let mut v = self.0;
        for digit in 0.. {
            if digit == 6 {
                put(b'.');
            }
            put(b'0' + (v % 10) as u8);
            v /= 10;
            if v == 0 && digit >= 6 {
                break;
            }
        }
        put(b'+');
        put(b't');
        &buf[i..]
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.write_to(f)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}µs", self.0)
        } else if self.0 < 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_roundtrips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimDuration::from_mins(2).as_micros(), 120_000_000);
        assert_eq!(SimDuration::from_hours(1).as_micros(), 3_600_000_000);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_micros(), 10_500_000);
        assert_eq!(t - SimTime::from_secs(10), SimDuration::from_millis(500));
        assert_eq!(
            SimTime::from_secs(1).since(SimTime::from_secs(5)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_secs(2);
        assert_eq!(d.mul_f64(1.5), SimDuration::from_millis(3000));
        assert_eq!(d * 3, SimDuration::from_secs(6));
        assert_eq!(d / 4, SimDuration::from_millis(500));
    }

    #[test]
    fn from_secs_f64_clamps_and_rounds() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(0.0000015),
            SimDuration::from_micros(2)
        );
    }

    #[test]
    fn saturating_behaviour() {
        assert_eq!(
            SimTime::FAR_FUTURE + SimDuration::from_secs(1),
            SimTime::FAR_FUTURE
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
        assert!(SimTime::FAR_FUTURE.checked_add(SimDuration::from_micros(1)).is_none());
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12µs");
        assert_eq!(format!("{}", SimDuration::from_micros(2_500)), "2.500ms");
        assert_eq!(format!("{}", SimDuration::from_secs(3)), "3.000s");
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "t+1.500000s");
    }

    /// The integer writer prints what the float formatter it replaced printed,
    /// across the whole range the equivalence argument covers.
    #[test]
    fn integer_time_writer_matches_float_formatting() {
        let float_form = |us: u64| format!("t+{:.6}s", us as f64 / 1e6);
        let mut edges = vec![0, 1, 999_999, 1_000_000, 4_500_000_000_000_000 - 1];
        for k in 1..=15 {
            let p = 10u64.pow(k);
            edges.extend([p - 1, p + 1]);
        }
        for us in edges {
            assert_eq!(
                SimTime::from_micros(us).to_string(),
                float_form(us),
                "edge {us}"
            );
        }
        let mut rng = crate::DetRng::seed_from_u64(0x71de);
        for case in 0..4096 {
            // Uniform in magnitude, not in value: short stamps are the common case.
            let us = rng.range_u64(0, 1 << 52) >> rng.range_u64(0, 52);
            assert_eq!(
                SimTime::from_micros(us).to_string(),
                float_form(us),
                "case {case}: {us}"
            );
        }
        // Beyond the float's reach the integer form stays exact.
        assert_eq!(SimTime::FAR_FUTURE.to_string(), "t+18446744073709.551615s");
    }
}
