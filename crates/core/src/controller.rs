//! PI feedback controller for quality-target tracking.
//!
//! The open-loop estimate `K̂ = F⁻¹(q)` is only as good as the delay sample;
//! under estimation error or non-stationary delays, achieved quality
//! deviates from the target. AQ-K-slack closes the loop: a PI controller on
//! the quality error adjusts the quantile *setpoint margin*, raising it
//! while quality lags the target and relaxing it when there is headroom. The
//! controller output is a margin added to the requested quantile (in
//! probability space), which keeps the correction scale-free across
//! workloads with wildly different delay magnitudes.

/// A discrete proportional-integral controller with output clamping and
/// anti-windup (the integral does not accumulate while the output is
/// saturated in the same direction).
#[derive(Debug, Clone)]
pub struct PiController {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain.
    pub ki: f64,
    /// Output lower bound.
    pub out_min: f64,
    /// Output upper bound.
    pub out_max: f64,
    integral: f64,
    last_output: f64,
}

impl PiController {
    /// Build a controller with the given gains and output bounds.
    pub fn new(kp: f64, ki: f64, out_min: f64, out_max: f64) -> PiController {
        assert!(out_min <= out_max, "controller bounds inverted");
        PiController {
            kp,
            ki,
            out_min,
            out_max,
            integral: 0.0,
            last_output: 0.0,
        }
    }

    /// Feed one error observation (`target − measured`; positive = quality
    /// too low → output should rise). Returns the clamped output.
    pub fn update(&mut self, error: f64) -> f64 {
        let raw_p = self.kp * error;
        self.integral += error;
        let unclamped = raw_p + self.ki * self.integral;
        let out = unclamped.clamp(self.out_min, self.out_max);
        // Back-calculation anti-windup: when the output saturates, rewind
        // the integral to exactly the value that produces the bound, so it
        // carries no memory of the excess.
        if self.ki != 0.0 && unclamped != out {
            self.integral = (out - raw_p) / self.ki;
        }
        self.last_output = out;
        out
    }

    /// Most recent output.
    pub fn output(&self) -> f64 {
        self.last_output
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proportional_response() {
        let mut c = PiController::new(2.0, 0.0, -10.0, 10.0);
        assert_eq!(c.update(1.0), 2.0);
        assert_eq!(c.update(-1.5), -3.0);
    }

    #[test]
    fn integral_accumulates_persistent_error() {
        let mut c = PiController::new(0.0, 0.5, -10.0, 10.0);
        assert_eq!(c.update(1.0), 0.5);
        assert_eq!(c.update(1.0), 1.0);
        assert_eq!(c.update(1.0), 1.5);
        // Error removed → output holds (integral memory).
        assert_eq!(c.update(0.0), 1.5);
    }

    #[test]
    fn output_is_clamped() {
        let mut c = PiController::new(100.0, 0.0, -1.0, 1.0);
        assert_eq!(c.update(5.0), 1.0);
        assert_eq!(c.update(-5.0), -1.0);
    }

    #[test]
    fn anti_windup_prevents_overshoot_memory() {
        let mut c = PiController::new(0.0, 1.0, 0.0, 1.0);
        // Saturate hard for many steps.
        for _ in 0..100 {
            assert_eq!(c.update(10.0), 1.0);
        }
        // A small negative error should pull the output off the bound
        // quickly, not after unwinding 1000 units of integral.
        let out = c.update(-0.5);
        assert!(out < 1.0, "windup: output stuck at {out}");
    }

    #[test]
    fn closed_loop_converges_on_simple_plant() {
        // Plant: measured = 0.8 + 0.15 * output (output = margin that lifts
        // quality); target 0.95 → required output = 1.0.
        let mut c = PiController::new(0.5, 0.3, 0.0, 3.0);
        let mut measured = 0.8;
        for _ in 0..200 {
            let out = c.update(0.95 - measured);
            measured = 0.8 + 0.15 * out;
        }
        assert!((measured - 0.95).abs() < 0.005, "converged to {measured}");
    }

    #[test]
    #[should_panic(expected = "bounds inverted")]
    fn rejects_inverted_bounds() {
        let _ = PiController::new(1.0, 1.0, 1.0, -1.0);
    }
}
