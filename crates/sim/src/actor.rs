//! The actor programming model protocols are written against.
//!
//! An [`Actor`] is installed on a device and reacts to three stimuli:
//! start, message delivery, and timer expiry. All effects (sending,
//! arming timers) go through the [`Context`], which records commands for
//! the engine to apply after the callback returns — the actor never touches
//! engine state directly, which keeps callbacks simple and the engine
//! deterministic.

use crate::time::{Duration, SimTime};
use edgelet_util::ids::DeviceId;
use edgelet_util::rng::DetRng;
use edgelet_util::Payload;

/// Identifies an armed timer so it can be recognized or cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerToken(pub u64);

/// Commands an actor issues during a callback.
///
/// Public so alternative hosts (the live runtime in `edgelet-live`) can
/// drive the same actors: they construct a [`Context`], run a callback,
/// then interpret the recorded commands with their own scheduler and
/// transport. The simulator engine remains the reference interpreter.
#[derive(Debug)]
pub enum Command {
    /// Send `payload` to device `to` (subject to the network model).
    Send {
        /// Destination device.
        to: DeviceId,
        /// Message bytes.
        payload: Payload,
    },
    /// Send one shared `payload` to each device in `to`.
    Broadcast {
        /// Destination devices (one network message each).
        to: Vec<DeviceId>,
        /// Message bytes, shared across recipients.
        payload: Payload,
    },
    /// Arm timer `token` to fire at virtual time `fire_at`.
    SetTimer {
        /// The token identifying the timer.
        token: TimerToken,
        /// Absolute virtual fire time.
        fire_at: SimTime,
    },
    /// Cancel a previously armed timer (no-op if already fired).
    CancelTimer {
        /// The token returned by [`Context::set_timer`].
        token: TimerToken,
    },
    /// Record a named scalar observation into the metrics sink.
    Observe {
        /// Metric name.
        name: &'static str,
        /// Observed value.
        value: f64,
    },
    /// Voluntarily stop this actor (it stops receiving events).
    Halt,
}

/// Execution context handed to actor callbacks.
pub struct Context<'a> {
    device: DeviceId,
    now: SimTime,
    rng: &'a mut DetRng,
    next_timer: &'a mut u64,
    pub(crate) commands: Vec<Command>,
}

impl<'a> Context<'a> {
    /// Creates a context for one actor callback.
    ///
    /// `next_timer` is the device's monotonically increasing timer counter;
    /// hosts must persist it across callbacks so [`TimerToken`]s stay
    /// unique per device.
    pub fn new(
        device: DeviceId,
        now: SimTime,
        rng: &'a mut DetRng,
        next_timer: &'a mut u64,
    ) -> Self {
        Self {
            device,
            now,
            rng,
            next_timer,
            commands: Vec::new(),
        }
    }

    /// Removes and returns the commands recorded so far, in issue order.
    ///
    /// Used by whatever hosts the callback (the slice executor, a test
    /// harness) to interpret its effects after it returns.
    pub fn take_commands(&mut self) -> Vec<Command> {
        std::mem::take(&mut self.commands)
    }

    /// The device this actor runs on.
    pub fn device(&self) -> DeviceId {
        self.device
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Deterministic per-device randomness.
    pub fn rng(&mut self) -> &mut DetRng {
        self.rng
    }

    /// Sends a message to another device (subject to the network model).
    ///
    /// Accepts anything convertible into a [`Payload`]; passing a
    /// `Vec<u8>` or an existing `Payload` hands the bytes over without
    /// copying them.
    pub fn send(&mut self, to: DeviceId, payload: impl Into<Payload>) {
        self.commands.push(Command::Send {
            to,
            payload: payload.into(),
        });
    }

    /// Sends the same payload to many devices (one network message each).
    /// All recipients share one buffer — fan-out costs no byte copies.
    pub fn broadcast(&mut self, to: Vec<DeviceId>, payload: impl Into<Payload>) {
        if !to.is_empty() {
            self.commands.push(Command::Broadcast {
                to,
                payload: payload.into(),
            });
        }
    }

    /// Arms a timer firing after `delay`; returns its token.
    pub fn set_timer(&mut self, delay: Duration) -> TimerToken {
        let token = TimerToken(*self.next_timer);
        *self.next_timer += 1;
        self.commands.push(Command::SetTimer {
            token,
            fire_at: self.now + delay,
        });
        token
    }

    /// Cancels a previously armed timer (no-op if already fired).
    pub fn cancel_timer(&mut self, token: TimerToken) {
        self.commands.push(Command::CancelTimer { token });
    }

    /// Records a named observation into the simulation metrics.
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.commands.push(Command::Observe { name, value });
    }

    /// Stops this actor; it receives no further events.
    pub fn halt(&mut self) {
        self.commands.push(Command::Halt);
    }
}

/// A protocol endpoint installed on one device.
///
/// Actors must be [`Send`]: the sharded engine moves device state (actor
/// included) to worker threads for the duration of a time window.
pub trait Actor: Send {
    /// Called once when the simulation starts (or the actor is installed).
    fn on_start(&mut self, _ctx: &mut Context<'_>) {}

    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, ctx: &mut Context<'_>, from: DeviceId, payload: &[u8]);

    /// Called when a timer armed via [`Context::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Context<'_>, _token: TimerToken) {}

    /// Called when the device reconnects after a down period. Optional.
    fn on_reconnect(&mut self, _ctx: &mut Context<'_>) {}

    /// Returns the actor to the state its constructor gave it, for a host
    /// that runs the same world again (`Shard::reset`). `false`, the
    /// default, says it cannot: the host must build it anew.
    fn restart(&mut self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_collects_commands() {
        let mut rng = DetRng::new(1);
        let mut next = 0u64;
        let mut ctx = Context::new(
            DeviceId::new(1),
            SimTime::from_micros(10),
            &mut rng,
            &mut next,
        );
        assert_eq!(ctx.device(), DeviceId::new(1));
        assert_eq!(ctx.now(), SimTime::from_micros(10));
        ctx.send(DeviceId::new(2), vec![1, 2]);
        let t = ctx.set_timer(Duration::from_micros(5));
        assert_eq!(t, TimerToken(0));
        let t2 = ctx.set_timer(Duration::from_micros(5));
        assert_eq!(t2, TimerToken(1));
        ctx.cancel_timer(t);
        ctx.observe("x", 1.0);
        ctx.broadcast(vec![DeviceId::new(3)], vec![9]);
        ctx.broadcast(vec![], vec![9]); // dropped
        ctx.halt();
        assert_eq!(ctx.commands.len(), 7);
        let _ = ctx.rng().next_u64();
    }
}
