//! A client connection's pending-message queue with a rolling digest.
//!
//! The per-second state digest of a flight hashes every MAVProxy
//! client outbox. Executors never drain those outboxes, so hashing
//! each one in full every second costs O(flight length²) over a
//! flight. [`Outbox`] instead keeps a running fold of its contents:
//! each message is folded exactly once, and the state hash writes the
//! length plus that running value.

use std::cell::RefCell;
use std::rc::Rc;

use androne_mavlink::Message;
use androne_simkern::StateHasher;

/// An append-only queue of shared messages plus a running
/// [`StateHasher`] over them.
///
/// The only mutators are [`Outbox::push`], [`Outbox::extend`] and
/// [`Outbox::drain`]; stored messages are never handed out mutably.
/// The digest relies on that: a message is folded once, as the msg
/// id followed by its encoded payload, and never revisited. Any
/// future in-place edit or truncation other than a full drain must
/// reset the running hash and re-fold what remains.
///
/// Folding is deferred from the push to the next [`Outbox::digest`]
/// call, which folds whatever arrived since the previous one. Pushes
/// sit on the 400 Hz telemetry fan-out path and stay a plain `Vec`
/// push; messages drained before any digest read are never hashed.
#[derive(Default)]
pub(crate) struct Outbox {
    msgs: Vec<Rc<Message>>,
    fold: RefCell<Fold>,
}

/// The running fold of an outbox's first `folded` messages.
#[derive(Default)]
struct Fold {
    hash: StateHasher,
    folded: usize,
    /// Scratch for payload encodings, reused across messages.
    payload: Vec<u8>,
}

impl Outbox {
    /// Appends one message.
    pub(crate) fn push(&mut self, msg: Rc<Message>) {
        self.msgs.push(msg);
    }

    /// Appends messages in order.
    pub(crate) fn extend(&mut self, msgs: impl IntoIterator<Item = Rc<Message>>) {
        self.msgs.extend(msgs);
    }

    /// Takes every pending message and restarts the running hash.
    pub(crate) fn drain(&mut self) -> Vec<Rc<Message>> {
        let fold = self.fold.get_mut();
        fold.hash = StateHasher::new();
        fold.folded = 0;
        std::mem::take(&mut self.msgs)
    }

    /// Messages pending.
    pub(crate) fn len(&self) -> usize {
        self.msgs.len()
    }

    /// The fold of every pending message, oldest first: catches the
    /// running hash up on messages appended since the last call.
    pub(crate) fn digest(&self) -> u64 {
        let mut fold = self.fold.borrow_mut();
        let Fold {
            hash,
            folded,
            payload,
        } = &mut *fold;
        for msg in &self.msgs[*folded..] {
            hash.write_u8(msg.msg_id());
            payload.clear();
            msg.encode_payload_into(payload);
            hash.write_bytes(payload);
        }
        *folded = self.msgs.len();
        hash.finish()
    }

    /// The pending messages, oldest first.
    #[cfg(test)]
    pub(crate) fn iter(&self) -> impl Iterator<Item = &Rc<Message>> {
        self.msgs.iter()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use androne_mavlink::{FlightMode, MavCmd, MavResult};
    use androne_simkern::stream_rng;
    use rand::Rng;

    const MODES: [FlightMode; 7] = [
        FlightMode::Stabilize,
        FlightMode::AltHold,
        FlightMode::Auto,
        FlightMode::Guided,
        FlightMode::Loiter,
        FlightMode::Rtl,
        FlightMode::Land,
    ];
    const CMDS: [MavCmd; 8] = [
        MavCmd::NavWaypoint,
        MavCmd::NavReturnToLaunch,
        MavCmd::NavLand,
        MavCmd::NavTakeoff,
        MavCmd::ConditionYaw,
        MavCmd::DoSetMode,
        MavCmd::DoMountControl,
        MavCmd::ComponentArmDisarm,
    ];

    /// A random message; every `Message` variant is equally likely.
    pub(crate) fn any_message(rng: &mut impl Rng) -> Message {
        let mode = MODES[rng.gen_range(0..MODES.len())];
        let command = CMDS[rng.gen_range(0..CMDS.len())];
        let f = |rng: &mut dyn rand::RngCore| rng.gen_range(-100.0f32..100.0);
        match rng.gen_range(0u8..13) {
            0 => Message::Heartbeat {
                mode,
                armed: rng.gen_bool(0.5),
                system_status: rng.gen(),
            },
            1 => Message::SysStatus {
                voltage_mv: rng.gen(),
                current_ca: rng.gen(),
                battery_remaining: rng.gen(),
            },
            2 => Message::SetMode { mode },
            3 => Message::Attitude {
                time_boot_ms: rng.gen(),
                roll: f(rng),
                pitch: f(rng),
                yaw: f(rng),
            },
            4 => Message::GlobalPositionInt {
                time_boot_ms: rng.gen(),
                lat: rng.gen(),
                lon: rng.gen(),
                relative_alt: rng.gen(),
                vx: rng.gen(),
                vy: rng.gen(),
                vz: rng.gen(),
            },
            5 => Message::CommandLong {
                command,
                params: [f(rng), f(rng), f(rng), f(rng), f(rng), f(rng), f(rng)],
            },
            6 => Message::CommandAck {
                command,
                result: [MavResult::Accepted, MavResult::Denied, MavResult::Failed]
                    [rng.gen_range(0usize..3)],
            },
            7 => Message::SetPositionTargetGlobalInt {
                lat: rng.gen(),
                lon: rng.gen(),
                alt: f(rng),
                speed: f(rng),
            },
            8 => Message::MissionCount { count: rng.gen() },
            9 => Message::MissionRequestInt { seq: rng.gen() },
            10 => Message::MissionItemInt {
                seq: rng.gen(),
                lat: rng.gen(),
                lon: rng.gen(),
                alt: f(rng),
            },
            11 => Message::MissionAck { result: rng.gen() },
            _ => Message::StatusText {
                severity: rng.gen_range(0..7),
                text: "x".repeat(rng.gen_range(0..60)),
            },
        }
    }

    /// The outbox fold recomputed from a fresh hasher over `msgs`.
    pub(crate) fn rescan<'a>(msgs: impl Iterator<Item = &'a Rc<Message>>) -> u64 {
        let mut h = StateHasher::new();
        for msg in msgs {
            h.write_u8(msg.msg_id());
            h.write_bytes(&msg.encode_payload());
        }
        h.finish()
    }

    /// Seeded push/extend/drain sequences over every variant. `eager`
    /// is read after every operation, `sparse` only now and then, so
    /// catch-up folds of one message and of long runs are both
    /// checked against a rescan of the current contents.
    #[test]
    fn rolling_digest_equals_rescan() {
        for seed in 0..24 {
            let mut rng = stream_rng(seed);
            let mut eager = Outbox::default();
            let mut sparse = Outbox::default();
            for step in 0..300 {
                match rng.gen_range(0u8..10) {
                    0..=4 => {
                        let msg = Rc::new(any_message(&mut rng));
                        eager.push(Rc::clone(&msg));
                        sparse.push(msg);
                    }
                    5..=8 => {
                        let n = rng.gen_range(0usize..8);
                        let batch: Vec<Rc<Message>> =
                            (0..n).map(|_| Rc::new(any_message(&mut rng))).collect();
                        eager.extend(batch.iter().cloned());
                        sparse.extend(batch);
                    }
                    _ => {
                        let before = eager.len();
                        assert_eq!(eager.drain().len(), before);
                        assert_eq!(sparse.drain().len(), before);
                        assert_eq!(eager.len(), 0);
                    }
                }
                let at = format!("seed {seed} step {step}");
                assert_eq!(eager.digest(), rescan(eager.iter()), "{at}");
                if rng.gen_range(0u8..16) == 0 {
                    assert_eq!(sparse.digest(), rescan(sparse.iter()), "{at}");
                }
            }
        }
    }

    #[test]
    fn drained_outbox_digests_like_a_new_one() {
        let mut rng = stream_rng(7);
        let mut outbox = Outbox::default();
        outbox.extend((0..20).map(|_| Rc::new(any_message(&mut rng))));
        assert_ne!(outbox.digest(), Outbox::default().digest());
        outbox.drain();
        assert_eq!(outbox.digest(), Outbox::default().digest());
    }
}
