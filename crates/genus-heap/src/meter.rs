//! Per-run resource metering shared by every execution engine.
//!
//! A [`Meter`] tracks three independent budgets for one program run:
//!
//! * **fuel** — a count of abstract execution steps (one per statement /
//!   expression node in the AST engine, one per opcode in the VM). When the
//!   budget is exhausted the engine traps with `R0009 FuelExhausted`.
//! * **memory** — **exact bytes**, charged by the heap's allocation choke
//!   points (objects, arrays, packed existentials) and at string
//!   concatenation. The counter is *cumulative allocated bytes*: it never
//!   decreases, even when the collector reclaims garbage, so the `R0010
//!   MemoryLimit` trap fires at the identical allocation site on every
//!   engine regardless of collector timing — (code, span) parity by
//!   construction. Live-set statistics (what the collector actually holds)
//!   are reported separately by [`crate::Heap`].
//! * **deadline** — a wall-clock instant checked every
//!   `DEADLINE_CHECK_MASK + 1` steps; passing it traps with `R0009` (the
//!   scheduler treats a missed deadline as a form of fuel exhaustion so the
//!   response code is stable regardless of which limit fired first).
//!
//! All counters are `Cell`-based: a meter belongs to exactly one run on one
//! thread. Counters are *monotonic* — even if an engine layer swallows the
//! trap (e.g. error-tolerant stringification), the next `step()` re-fires
//! it, so a budgeted run can never silently continue past its limit.

use crate::value::{ErrorKind, RuntimeError};
use std::cell::Cell;
use std::time::Instant;

/// The deadline is polled when `used & DEADLINE_CHECK_MASK == 0`, i.e. every
/// 4096 steps, keeping `Instant::now()` off the per-step fast path.
const DEADLINE_CHECK_MASK: u64 = 0xFFF;

/// Resource limits for one run. `None` means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Limits {
    /// Maximum number of execution steps.
    pub fuel: Option<u64>,
    /// Maximum number of allocated heap bytes (cumulative over the run).
    pub memory: Option<u64>,
    /// Wall-clock deadline in milliseconds from meter creation.
    pub deadline_ms: Option<u64>,
}

/// Snapshot of consumed resources after (or during) a run.
///
/// `fuel_used`/`mem_used` come from the [`Meter`]; the last three fields
/// are the heap's collector statistics, filled in by the engine that owns
/// the [`crate::Heap`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceStats {
    /// Execution steps consumed.
    pub fuel_used: u64,
    /// Heap bytes allocated, cumulatively (never decremented by GC).
    pub mem_used: u64,
    /// Bytes live on the heap when the snapshot was taken (after the
    /// final sweep, for a finished run).
    pub live_bytes: u64,
    /// High-water mark of live heap bytes over the run.
    pub peak_bytes: u64,
    /// Number of stop-the-world collections performed.
    pub collections: u64,
}

/// Per-run step/allocation meter. See the module docs for semantics.
#[derive(Debug)]
pub struct Meter {
    used: Cell<u64>,
    fuel_limit: Option<u64>,
    mem_used: Cell<u64>,
    mem_limit: Option<u64>,
    deadline: Option<Instant>,
}

impl Default for Meter {
    fn default() -> Self {
        Meter::unlimited()
    }
}

impl Meter {
    /// A meter with no limits: `step`/`charge` only count.
    pub fn unlimited() -> Self {
        Meter {
            used: Cell::new(0),
            fuel_limit: None,
            mem_used: Cell::new(0),
            mem_limit: None,
            deadline: None,
        }
    }

    /// A meter enforcing the given limits, with the deadline anchored at
    /// the moment of this call.
    pub fn with_limits(limits: Limits) -> Self {
        Meter {
            used: Cell::new(0),
            fuel_limit: limits.fuel,
            mem_used: Cell::new(0),
            mem_limit: limits.memory,
            deadline: limits
                .deadline_ms
                .map(|ms| Instant::now() + std::time::Duration::from_millis(ms)),
        }
    }

    /// Consumes one step of fuel. Errs with `R0009` once the budget is
    /// exhausted or the wall-clock deadline has passed.
    #[inline]
    pub fn step(&self) -> Result<(), RuntimeError> {
        let used = self.used.get() + 1;
        self.used.set(used);
        if let Some(limit) = self.fuel_limit {
            if used > limit {
                return Err(RuntimeError::new(
                    ErrorKind::FuelExhausted,
                    format!("fuel budget of {limit} steps exhausted"),
                ));
            }
        }
        if let Some(deadline) = self.deadline {
            if used & DEADLINE_CHECK_MASK == 0 && Instant::now() >= deadline {
                return Err(RuntimeError::new(
                    ErrorKind::FuelExhausted,
                    "wall-clock deadline exceeded",
                ));
            }
        }
        Ok(())
    }

    /// Charges `bytes` of heap allocation. Errs with `R0010` once the
    /// cumulative cap is exceeded.
    #[inline]
    pub fn charge(&self, bytes: u64) -> Result<(), RuntimeError> {
        let used = self.mem_used.get().saturating_add(bytes);
        self.mem_used.set(used);
        if let Some(limit) = self.mem_limit {
            if used > limit {
                return Err(RuntimeError::new(
                    ErrorKind::MemoryLimit,
                    format!("heap allocation cap of {limit} bytes exceeded"),
                ));
            }
        }
        Ok(())
    }

    /// Consumed resources so far. Heap statistics are zero here; the
    /// engine owning the heap overlays them (see
    /// [`crate::Heap::fill_stats`]).
    pub fn stats(&self) -> ResourceStats {
        ResourceStats {
            fuel_used: self.used.get(),
            mem_used: self.mem_used.get(),
            ..ResourceStats::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_traps() {
        let m = Meter::unlimited();
        for _ in 0..10_000 {
            m.step().unwrap();
        }
        m.charge(u64::MAX).unwrap();
        assert_eq!(m.stats().fuel_used, 10_000);
    }

    #[test]
    fn fuel_trap_fires_and_refires() {
        let m = Meter::with_limits(Limits {
            fuel: Some(3),
            ..Limits::default()
        });
        assert!(m.step().is_ok());
        assert!(m.step().is_ok());
        assert!(m.step().is_ok());
        let e = m.step().unwrap_err();
        assert_eq!(e.code(), "R0009");
        // Monotonic: a swallowed trap re-fires on the next step.
        assert_eq!(m.step().unwrap_err().code(), "R0009");
    }

    #[test]
    fn memory_trap() {
        let m = Meter::with_limits(Limits {
            memory: Some(10),
            ..Limits::default()
        });
        assert!(m.charge(10).is_ok());
        let e = m.charge(1).unwrap_err();
        assert_eq!(e.code(), "R0010");
        assert_eq!(m.stats().mem_used, 11);
    }

    #[test]
    fn deadline_trap() {
        let m = Meter::with_limits(Limits {
            deadline_ms: Some(0),
            ..Limits::default()
        });
        // The deadline is only polled every 4096 steps.
        let mut last = Ok(());
        for _ in 0..=4096 {
            last = m.step();
            if last.is_err() {
                break;
            }
        }
        assert_eq!(last.unwrap_err().code(), "R0009");
    }
}
