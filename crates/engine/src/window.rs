//! Window specifications and assignment.
//!
//! Windows are half-open event-time intervals `[start, end)`. A
//! [`WindowSpec`] describes how events map to windows; [`WindowSpec::assign`]
//! returns every window a timestamp belongs to. Only time-based windows
//! exist: each spec is a pure function of the timestamp, which is what makes
//! out-of-order insertion possible (a late event can still be routed to
//! its correct — possibly already-emitted — window).

use crate::error::{EngineError, Result};
use crate::time::{TimeDelta, Timestamp};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A half-open event-time interval `[start, end)` identifying one window
/// instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Window {
    /// Inclusive start.
    pub start: Timestamp,
    /// Exclusive end.
    pub end: Timestamp,
}

impl Window {
    /// Construct a window; `start` must precede `end`.
    pub fn new(start: Timestamp, end: Timestamp) -> Window {
        debug_assert!(start < end, "window start must precede end");
        Window { start, end }
    }

    /// Whether the timestamp falls inside `[start, end)`.
    #[inline]
    pub fn contains(&self, ts: Timestamp) -> bool {
        self.start <= ts && ts < self.end
    }

    /// Window length.
    pub fn length(&self) -> TimeDelta {
        self.end.delta_since(self.start)
    }
}

impl fmt::Display for Window {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start.raw(), self.end.raw())
    }
}

/// How events are grouped into windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WindowSpec {
    /// Non-overlapping fixed-length windows aligned to multiples of `length`.
    Tumbling {
        /// Window length (> 0).
        length: TimeDelta,
    },
    /// Overlapping fixed-length windows starting every `slide` units.
    /// `slide` must divide into sensible overlap: `0 < slide <= length`.
    Sliding {
        /// Window length (> 0).
        length: TimeDelta,
        /// Distance between consecutive window starts (> 0, <= length).
        slide: TimeDelta,
    },
}

impl WindowSpec {
    /// Tumbling windows of the given length.
    pub fn tumbling(length: impl Into<TimeDelta>) -> WindowSpec {
        WindowSpec::Tumbling {
            length: length.into(),
        }
    }

    /// Sliding windows of the given length and slide.
    pub fn sliding(length: impl Into<TimeDelta>, slide: impl Into<TimeDelta>) -> WindowSpec {
        WindowSpec::Sliding {
            length: length.into(),
            slide: slide.into(),
        }
    }

    /// Validate the parameters.
    pub fn validate(&self) -> Result<()> {
        match *self {
            WindowSpec::Tumbling { length } => {
                if length == TimeDelta::ZERO {
                    return Err(EngineError::InvalidWindow(
                        "tumbling length must be > 0".into(),
                    ));
                }
            }
            WindowSpec::Sliding { length, slide } => {
                if length == TimeDelta::ZERO || slide == TimeDelta::ZERO {
                    return Err(EngineError::InvalidWindow(
                        "sliding length and slide must be > 0".into(),
                    ));
                }
                if slide > length {
                    return Err(EngineError::InvalidWindow(format!(
                        "slide {slide} exceeds length {length}; windows would not cover the stream"
                    )));
                }
            }
        }
        Ok(())
    }

    /// The window length.
    pub fn length(&self) -> TimeDelta {
        match *self {
            WindowSpec::Tumbling { length } => length,
            WindowSpec::Sliding { length, .. } => length,
        }
    }

    /// Distance between consecutive window starts (equals length for
    /// tumbling windows).
    pub fn slide(&self) -> TimeDelta {
        match *self {
            WindowSpec::Tumbling { length } => length,
            WindowSpec::Sliding { slide, .. } => slide,
        }
    }

    /// Every window instance containing `ts`, in increasing start order.
    ///
    /// For tumbling windows this is exactly one window; for sliding windows
    /// `ceil(length / slide)` windows (fewer near the stream origin where
    /// windows would have negative starts).
    pub fn assign(&self, ts: Timestamp) -> Vec<Window> {
        let length = self.length().raw().max(1);
        let slide = self.slide().raw().max(1);
        let t = ts.raw();
        // Start of the last window containing t: floor(t / slide) * slide.
        let last_start = (t / slide) * slide;
        let mut windows = Vec::with_capacity((length / slide + 1) as usize);
        // Walk backwards while the window still contains t and start >= 0.
        let mut start = last_start;
        loop {
            let end = start.saturating_add(length);
            if t < end {
                windows.push(Window::new(Timestamp(start), Timestamp(end)));
            } else {
                break;
            }
            if start < slide {
                break;
            }
            start -= slide;
        }
        windows.reverse();
        windows
    }

    /// The single window with the largest start containing `ts` (the "home"
    /// window; for tumbling specs, *the* window).
    pub fn home_window(&self, ts: Timestamp) -> Window {
        let length = self.length().raw().max(1);
        let slide = self.slide().raw().max(1);
        let start = (ts.raw() / slide) * slide;
        Window::new(Timestamp(start), Timestamp(start.saturating_add(length)))
    }
}

impl fmt::Display for WindowSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WindowSpec::Tumbling { length } => write!(f, "tumbling({length})"),
            WindowSpec::Sliding { length, slide } => write!(f, "sliding({length}, {slide})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tumbling_assignment_is_unique_and_aligned() {
        let spec = WindowSpec::tumbling(10u64);
        let ws = spec.assign(Timestamp(25));
        assert_eq!(ws, vec![Window::new(Timestamp(20), Timestamp(30))]);
        let ws = spec.assign(Timestamp(20));
        assert_eq!(ws, vec![Window::new(Timestamp(20), Timestamp(30))]);
        let ws = spec.assign(Timestamp(0));
        assert_eq!(ws, vec![Window::new(Timestamp(0), Timestamp(10))]);
    }

    #[test]
    fn sliding_assignment_covers_all_overlapping_windows() {
        let spec = WindowSpec::sliding(10u64, 5u64);
        let ws = spec.assign(Timestamp(12));
        assert_eq!(
            ws,
            vec![
                Window::new(Timestamp(5), Timestamp(15)),
                Window::new(Timestamp(10), Timestamp(20)),
            ]
        );
        for w in &ws {
            assert!(w.contains(Timestamp(12)));
        }
    }

    #[test]
    fn sliding_assignment_near_origin_truncates() {
        let spec = WindowSpec::sliding(10u64, 5u64);
        let ws = spec.assign(Timestamp(3));
        // Only [0,10) exists; [-5,5) would have negative start.
        assert_eq!(ws, vec![Window::new(Timestamp(0), Timestamp(10))]);
    }

    #[test]
    fn sliding_with_fine_slide() {
        let spec = WindowSpec::sliding(10u64, 2u64);
        let ws = spec.assign(Timestamp(100));
        assert_eq!(ws.len(), 5);
        for w in &ws {
            assert!(w.contains(Timestamp(100)));
            assert_eq!(w.length(), TimeDelta(10));
            assert_eq!(w.start.raw() % 2, 0);
        }
        // Windows are in increasing start order and distinct.
        for pair in ws.windows(2) {
            assert!(pair[0].start < pair[1].start);
        }
    }

    #[test]
    fn validate_rejects_degenerate_specs() {
        assert!(WindowSpec::tumbling(0u64).validate().is_err());
        assert!(WindowSpec::sliding(10u64, 0u64).validate().is_err());
        assert!(WindowSpec::sliding(10u64, 11u64).validate().is_err());
        assert!(WindowSpec::sliding(10u64, 10u64).validate().is_ok());
    }

    #[test]
    fn home_window_is_last_assigned() {
        let spec = WindowSpec::sliding(10u64, 5u64);
        let ws = spec.assign(Timestamp(12));
        assert_eq!(spec.home_window(Timestamp(12)), *ws.last().unwrap());
    }

    #[test]
    fn window_contains_is_half_open() {
        let w = Window::new(Timestamp(10), Timestamp(20));
        assert!(w.contains(Timestamp(10)));
        assert!(w.contains(Timestamp(19)));
        assert!(!w.contains(Timestamp(20)));
        assert!(!w.contains(Timestamp(9)));
        assert_eq!(w.length(), TimeDelta(10));
    }
}
