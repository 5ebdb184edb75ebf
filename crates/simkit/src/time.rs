//! Simulation time types.
//!
//! All simulation time is expressed in integer microseconds since the start
//! of the run. Microsecond resolution is fine enough to place V-Sync edges
//! of a 120 Hz panel (8333 µs period) with negligible rounding drift over
//! multi-minute runs, while keeping arithmetic exact and deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in microseconds since the run start.
///
/// # Examples
///
/// ```
/// use ccdem_simkit::time::{SimTime, SimDuration};
///
/// let t = SimTime::ZERO + SimDuration::from_millis(16);
/// assert_eq!(t.as_micros(), 16_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulation time, in microseconds.
///
/// # Examples
///
/// ```
/// use ccdem_simkit::time::SimDuration;
///
/// let frame = SimDuration::from_micros(16_667);
/// assert!(frame < SimDuration::from_millis(17));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The origin of the simulation clock.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates a time `micros` microseconds after the run start.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime(micros)
    }

    /// Creates a time `millis` milliseconds after the run start.
    ///
    /// # Panics
    ///
    /// Panics if the time is not representable in microseconds.
    pub const fn from_millis(millis: u64) -> Self {
        assert!(millis <= u64::MAX / 1_000, "SimTime::from_millis overflows");
        SimTime(millis * 1_000)
    }

    /// Creates a time `secs` seconds after the run start.
    ///
    /// # Panics
    ///
    /// Panics if the time is not representable in microseconds.
    pub const fn from_secs(secs: u64) -> Self {
        assert!(secs <= u64::MAX / 1_000_000, "SimTime::from_secs overflows");
        SimTime(secs * 1_000_000)
    }

    /// Microseconds since the run start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Seconds since the run start, as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Duration elapsed since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `micros` microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros)
    }

    /// Creates a duration of `millis` milliseconds.
    ///
    /// # Panics
    ///
    /// Panics if the duration is not representable in microseconds.
    pub const fn from_millis(millis: u64) -> Self {
        assert!(millis <= u64::MAX / 1_000, "SimDuration::from_millis overflows");
        SimDuration(millis * 1_000)
    }

    /// Creates a duration of `secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if the duration is not representable in microseconds.
    pub const fn from_secs(secs: u64) -> Self {
        assert!(secs <= u64::MAX / 1_000_000, "SimDuration::from_secs overflows");
        SimDuration(secs * 1_000_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `secs` is negative or not finite.
    pub fn from_secs_f64(secs: f64) -> Self {
        assert!(
            secs.is_finite() && secs >= 0.0,
            "duration must be finite and non-negative, got {secs}"
        );
        SimDuration((secs * 1e6).round() as u64)
    }

    /// The duration of one cycle at `hz` cycles per second, rounded to the
    /// nearest microsecond.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub fn from_hz(hz: u32) -> Self {
        assert!(hz > 0, "frequency must be non-zero");
        SimDuration((1e6 / f64::from(hz)).round() as u64)
    }

    /// Length in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Whether this is the zero duration.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// The shorter of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The longer of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

impl From<SimDuration> for std::time::Duration {
    fn from(d: SimDuration) -> Self {
        std::time::Duration::from_micros(d.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_arithmetic_round_trips() {
        let t = SimTime::from_millis(5);
        let d = SimDuration::from_micros(250);
        assert_eq!((t + d) - t, d);
        assert_eq!((t + d) - d, t);
    }

    #[test]
    fn from_hz_matches_known_periods() {
        assert_eq!(SimDuration::from_hz(60).as_micros(), 16_667);
        assert_eq!(SimDuration::from_hz(40).as_micros(), 25_000);
        assert_eq!(SimDuration::from_hz(30).as_micros(), 33_333);
        assert_eq!(SimDuration::from_hz(24).as_micros(), 41_667);
        assert_eq!(SimDuration::from_hz(20).as_micros(), 50_000);
    }

    #[test]
    fn saturating_since_never_underflows() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(1));
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_micros(5).to_string(), "5µs");
        assert_eq!(SimDuration::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }

    #[test]
    fn from_secs_f64_rounds_to_micros() {
        assert_eq!(SimDuration::from_secs_f64(0.0000015).as_micros(), 2);
        assert_eq!(SimDuration::from_secs_f64(1.0), SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn from_secs_f64_rejects_negative() {
        let _ = SimDuration::from_secs_f64(-1.0);
    }

    #[test]
    fn constructors_accept_the_largest_representable_value() {
        let max = u64::MAX / 1_000_000;
        assert_eq!(SimDuration::from_secs(max).as_micros(), max * 1_000_000);
        assert_eq!(SimTime::from_secs(max).as_micros(), max * 1_000_000);
    }

    #[test]
    #[should_panic(expected = "SimTime::from_secs overflows")]
    fn time_from_secs_panics_on_overflow() {
        let _ = SimTime::from_secs(std::hint::black_box(u64::MAX));
    }

    #[test]
    #[should_panic(expected = "SimDuration::from_secs overflows")]
    fn duration_from_secs_panics_on_overflow() {
        let _ = SimDuration::from_secs(std::hint::black_box(18_446_744_073_710));
    }

    #[test]
    #[should_panic(expected = "SimTime::from_millis overflows")]
    fn time_from_millis_panics_on_overflow() {
        let _ = SimTime::from_millis(std::hint::black_box(u64::MAX));
    }

    #[test]
    fn duration_scalar_ops() {
        let d = SimDuration::from_millis(10);
        assert_eq!(d * 3, SimDuration::from_millis(30));
        assert_eq!(d / 2, SimDuration::from_millis(5));
    }
}
